// Command p2check holds a message-mode deployment to matrix P2's
// guarantee. It sums the exact Grams AᵀA that the sites' `distsite
// -protocol p2 -oracle` runs printed and checks the coordinator's queried
// Gram BᵀB against them: ‖AᵀA − BᵀB‖₂ ≤ ε‖A‖²_F. It also checks, from
// /metrics, that the tracker applied each message the sites sent exactly
// once, and that there were fewer messages than rows. It prints messages
// and site bytes per row, against the raw-row byte count it is given.
//
// Usage (scripts/e2e_smoke.sh runs it):
//
//	p2check TRACKER EPS RAW_BYTES RAW_ROWS P2_BYTES query.json metrics.json oracle.json...
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/matrix"
)

// siteOracle is what one site's -oracle run prints in p2 mode.
type siteOracle struct {
	Rows     int64       `json:"rows"`
	Messages int64       `json:"messages"`
	Gram     [][]float64 `json:"gram"`
}

// tally is the tracker's message count in /metrics.
type tally struct {
	UpMsgs     int64 `json:"up_msgs"`
	Broadcasts int64 `json:"broadcasts"`
}

// symOf adopts a JSON Gram verbatim as a d×d Sym.
func symOf(g [][]float64, d int) (*matrix.Sym, error) {
	if len(g) != d {
		return nil, fmt.Errorf("Gram has %d rows, want %d", len(g), d)
	}
	raw := make([]float64, 0, d*d)
	for i, row := range g {
		if len(row) != d {
			return nil, fmt.Errorf("Gram row %d has %d entries, want %d", i, len(row), d)
		}
		raw = append(raw, row...)
	}
	return matrix.SymFromRaw(d, raw), nil
}

// check holds the coordinator's Gram and tally to P2's guarantee over the
// sites' oracles, and returns the summary line.
func check(eps float64, gram [][]float64, tm tally, sites []siteOracle) (string, error) {
	if len(sites) == 0 {
		return "", fmt.Errorf("no site oracle")
	}
	d := len(sites[0].Gram)
	exact := matrix.NewSym(d)
	var rows, msgs int64
	for i, s := range sites {
		g, err := symOf(s.Gram, d)
		if err != nil {
			return "", fmt.Errorf("site oracle %d: %w", i, err)
		}
		exact.AddSym(g)
		rows += s.Rows
		msgs += s.Messages
	}
	b, err := symOf(gram, d)
	if err != nil {
		return "", fmt.Errorf("coordinator: %w", err)
	}
	norm, err := matrix.CovarianceDiffNorm(exact, b)
	if err != nil {
		return "", err
	}
	fro := exact.Trace()
	summary := fmt.Sprintf("%d rows, %d messages up (%.4f per row), %d broadcasts, covariance error %.4g (ε = %g)",
		rows, tm.UpMsgs, float64(tm.UpMsgs)/float64(rows), tm.Broadcasts, norm/fro, eps)
	switch {
	case norm > eps*fro+1e-9*(1+fro):
		return summary, fmt.Errorf("‖AᵀA − BᵀB‖₂ = %v exceeds ε‖A‖²_F = %v", norm, eps*fro)
	case tm.UpMsgs != msgs:
		return summary, fmt.Errorf("the tracker applied %d messages, the sites sent %d: not exactly once", tm.UpMsgs, msgs)
	case tm.UpMsgs >= rows:
		return summary, fmt.Errorf("the tracker received %d messages for %d rows: no saving", tm.UpMsgs, rows)
	}
	return summary, nil
}

func decode(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}

func run(args []string) error {
	if len(args) < 8 {
		return fmt.Errorf("usage: p2check TRACKER EPS RAW_BYTES RAW_ROWS P2_BYTES query.json metrics.json oracle.json...")
	}
	var nums [4]float64
	for i, a := range args[1:5] {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return err
		}
		nums[i] = v
	}
	eps, rawBytes, rawRows, p2Bytes := nums[0], nums[1], nums[2], nums[3]
	var query struct {
		Gram [][]float64 `json:"gram"`
	}
	if err := decode(args[5], &query); err != nil {
		return err
	}
	var metrics struct {
		Trackers map[string]tally `json:"trackers"`
	}
	if err := decode(args[6], &metrics); err != nil {
		return err
	}
	tm, ok := metrics.Trackers[args[0]]
	if !ok {
		return fmt.Errorf("/metrics has no tracker %q", args[0])
	}
	sites := make([]siteOracle, len(args)-7)
	for i, path := range args[7:] {
		if err := decode(path, &sites[i]); err != nil {
			return err
		}
	}
	summary, err := check(eps, query.Gram, tm, sites)
	fmt.Println("e2e: message mode: " + summary)
	if err != nil {
		return err
	}
	var rows int64
	for _, s := range sites {
		rows += s.Rows
	}
	fmt.Printf("e2e: site bytes on the wire per row: %.2f in message mode, %.2f shipping raw rows\n",
		p2Bytes/float64(rows), rawBytes/rawRows)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2check:", err)
		os.Exit(1)
	}
}
