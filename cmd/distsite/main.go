// Command distsite is the site-side daemon of a multi-node deployment:
// it streams numbered blocks to a distserve coordinator over the binary
// wire protocol (see internal/wire), with bounded in-flight backpressure,
// exponential-backoff reconnect, and watermark resume — kill and restart
// the coordinator mid-stream and every block still lands exactly once.
//
// What a block carries is chosen by -protocol:
//
//   - rows (the default): the raw rows, which the coordinator's tracker
//     runs through its whole protocol, sites included.
//   - p2: the site runs matrix P2's site half (core.P2Site) itself, one
//     step per block of rows, and streams only the messages the half
//     sends — O((m/ε)·log βN) of them instead of N rows — as msg-blocks
//     to the coordinator half of an unsharded, unwindowed matrix p2
//     tracker, whose F̂ broadcasts come back on the same connection. The
//     site's m and ε are the tracker's, read over -http.
//
// Rows come from a deterministic generator (seeded per site and block),
// so any process can reproduce the stream: with -oracle the daemon
// fetches the tracker's normalized spec over the coordinator's HTTP API
// and, after draining, prints as JSON what the coordinator's answer is
// checked against. In rows mode that is the expected query, from a replay
// of the same rows into a local in-process tracker — the CI smoke test
// compares it with the coordinator's bit for bit. In p2 mode, whose
// answer depends on when broadcasts arrive, it is the exact Gram AᵀA of
// the site's rows: the smoke test sums the sites' and holds the
// coordinator to P2's covariance bound.
//
// Usage:
//
//	distsite -coord HOST:PORT -tracker NAME [-protocol rows|p2] [-site N]
//	         [-rows N] [-block B] [-dim D] [-seed S] [-window W]
//	         [-pace DUR] [-durable] [-http URL] [-oracle] [-quiet]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"time"

	"repro/internal/matrix"
	"repro/internal/service"
	"repro/internal/wire"
)

// genBlock reproduces block seq of a site's stream: the generator is
// keyed on (seed, site, seq) alone, so the oracle replay and the wire
// stream produce bit-identical rows.
func genBlock(seed int64, site int, seq uint64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(site)*7919 + int64(seq)))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// fetchSpec reads the tracker's normalized spec from the coordinator's
// HTTP API.
func fetchSpec(base, tracker string) (service.Spec, error) {
	var doc struct {
		Spec service.Spec `json:"spec"`
	}
	resp, err := http.Get(base + "/trackers/" + tracker)
	if err != nil {
		return doc.Spec, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc.Spec, fmt.Errorf("GET %s/trackers/%s: %s", base, tracker, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc.Spec, err
	}
	return doc.Spec, nil
}

func main() {
	var (
		coord   = flag.String("coord", "127.0.0.1:9147", "coordinator wire address")
		httpURL = flag.String("http", "", "coordinator HTTP base URL (needed by -oracle and -dim 0)")
		tracker = flag.String("tracker", "", "tracker name to stream into (required)")
		proto   = flag.String("protocol", "rows", "what blocks carry: rows (raw rows) or p2 (the messages of matrix P2's site half, run here; needs -http)")
		site    = flag.Int("site", 0, "site id this daemon speaks for")
		rowsN   = flag.Int("rows", 10000, "total rows to stream")
		block   = flag.Int("block", 64, "rows per block")
		dim     = flag.Int("dim", 0, "row dimension (0: read from the tracker spec via -http)")
		seed    = flag.Int64("seed", 1, "row generator seed")
		window  = flag.Int("window", 0, "cap on the in-flight block window, which is sized by round trip below it (default 32)")
		pace    = flag.Duration("pace", 0, "optional delay between blocks")
		durable = flag.Bool("durable", false, "drain to the durable watermark before exiting (safe against a later coordinator crash)")
		oracle  = flag.Bool("oracle", false, "after draining, replay locally and print the expected query as JSON")
		quiet   = flag.Bool("quiet", false, "suppress operational logging")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "distsite: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	fatalf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "distsite: "+format+"\n", args...)
		os.Exit(1)
	}

	if *tracker == "" {
		fatalf("-tracker is required")
	}
	if *block <= 0 || *rowsN <= 0 {
		fatalf("-rows and -block must be positive")
	}
	if *proto != "rows" && *proto != "p2" {
		fatalf("-protocol %q: want rows or p2", *proto)
	}

	var spec service.Spec
	if *oracle || *dim == 0 || *proto == "p2" {
		if *httpURL == "" {
			fatalf("-oracle, -dim 0 and -protocol p2 need -http to read the tracker spec")
		}
		var err error
		spec, err = fetchSpec(*httpURL, *tracker)
		if err != nil {
			fatalf("fetching spec: %v", err)
		}
		if *dim == 0 {
			*dim = spec.Dim
		}
		if *dim != spec.Dim {
			fatalf("-dim %d but tracker %q has dim %d", *dim, *tracker, spec.Dim)
		}
	}

	cfg := wire.SiteConfig{
		Addr:    *coord,
		Site:    *site,
		Tracker: *tracker,
		Window:  *window,
		Logf:    logf,
	}
	var half *p2Site
	if *proto == "p2" {
		var err error
		if half, err = newP2Site(*site, spec.Sites, spec.Epsilon, *dim); err != nil {
			fatalf("%v", err)
		}
		cfg.Recv = half.recv
	}
	sc, err := wire.Dial(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer sc.Close()

	blocks := (*rowsN + *block - 1) / *block
	sent, msgs := 0, 0
	// In p2 mode the reference P2's bound is checked against: the exact
	// Gram of every row this site generated.
	var exact *matrix.Sym
	if half != nil && *oracle {
		exact = matrix.NewSym(*dim)
	}
	start := time.Now()
	for seq := uint64(1); seq <= uint64(blocks); seq++ {
		n := *block
		if rem := *rowsN - sent; rem < n {
			n = rem
		}
		rows := genBlock(*seed, *site, seq, n, *dim)
		if exact != nil {
			for _, r := range rows {
				exact.AddOuter(1, r)
			}
		}
		if half == nil {
			err = sc.SendBlock(rows)
		} else {
			var out []wire.Msg
			if out, err = half.step(rows); err == nil {
				err = sc.SendMsgs(out)
				msgs += len(out)
			}
		}
		if err != nil {
			fatalf("block %d: %v", seq, err)
		}
		sent += n
		if *pace > 0 {
			time.Sleep(*pace)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if *durable {
		err = sc.DrainDurable(ctx)
	} else {
		err = sc.Drain(ctx)
	}
	if err != nil {
		fatalf("drain: %v", err)
	}
	st := sc.Stats().Snapshot()
	logf("streamed %d rows in %d blocks (protocol %s, %d messages) in %v: %d reconnects, %d retransmits, %d frames / %d bytes out, window %d",
		sent, blocks, *proto, msgs, time.Since(start).Round(time.Millisecond),
		max(st.Connects-1, 0), st.Retransmits, st.FramesOut, st.BytesOut, st.Window)

	if !*oracle {
		return
	}
	if exact != nil {
		gram := make([][]float64, *dim)
		for i := range gram {
			gram[i] = make([]float64, *dim)
			for j := range gram[i] {
				gram[i][j] = exact.At(i, j)
			}
		}
		out := map[string]any{"rows": sent, "messages": msgs, "gram": gram}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fatalf("oracle: %v", err)
		}
		return
	}

	// Replay the identical stream into a local tracker built from the
	// coordinator's own normalized spec: same protocol state machine, same
	// rows, same order — the coordinator's query must match this bit for
	// bit, however many kills and reconnects the stream survived.
	mgr, err := service.Open(service.Options{})
	if err != nil {
		fatalf("oracle: %v", err)
	}
	defer mgr.Close()
	tr, err := mgr.Create(*tracker, spec)
	if err != nil {
		fatalf("oracle: %v", err)
	}
	replayed := 0
	for seq := uint64(1); seq <= uint64(blocks); seq++ {
		n := *block
		if rem := *rowsN - replayed; rem < n {
			n = rem
		}
		if err := tr.IngestRows(ctx, *site, genBlock(*seed, *site, seq, n, *dim)); err != nil {
			fatalf("oracle block %d: %v", seq, err)
		}
		replayed += n
	}
	snap, err := tr.Snapshot()
	if err != nil {
		fatalf("oracle: %v", err)
	}
	out := map[string]any{
		"rows":      replayed,
		"count":     snap.Count,
		"frobenius": snap.Frobenius,
		"trace":     snap.Gram.Trace(),
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fatalf("oracle: %v", err)
	}
}
