package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/service"
)

// checkResult carries the worst error of each kind, as a share of the ε
// bound it must stay within (≤ 1 passes).
type checkResult struct {
	covErrOverEps  float64
	hhErrOverEps   float64
	rankErrOverEps float64
}

// queryAnswer is the union of the three kinds' query documents.
type queryAnswer struct {
	Count        int64       `json:"count"`
	Gram         [][]float64 `json:"gram"`
	Total        float64     `json:"total"`
	HeavyHitters []struct {
		Elem   uint64  `json:"elem"`
		Weight float64 `json:"weight"`
	} `json:"heavy_hitters"`
	Quantiles []struct {
		Phi   float64 `json:"phi"`
		Value uint64  `json:"value"`
	} `json:"quantiles"`
}

// checkAnswers queries every tracker once more and compares the answer
// with the exact result of what was acked: the matrix Gram within ε‖A‖²_F,
// every reported heavy-hitter weight within εW, every quantile's rank
// within εW, and count equal to the updates acked. Each check is one more
// attempted op; a violated one is a failed op.
func checkAnswers(w *workload, p *pool, ses *session, res *runResult) checkResult {
	var out checkResult
	for ti, td := range w.trackers {
		res.attempted++
		sent := make([]int64, p.blocks())
		var acked int64
		for _, l := range ses.lanes {
			for b, c := range l.sent[ti] {
				sent[b] += int64(c)
				acked += int64(c) * int64(w.batch)
			}
		}
		variant := qGram
		if w.items {
			variant = qItems
		}
		status, body, err := ses.ctl.roundTrip(ses.lanes[0].tmpl.query[ti][variant], nil)
		if err != nil || status != http.StatusOK {
			res.failed++
			res.problem("check %s: final query: status %d: %v", td.name, status, err)
			continue
		}
		var ans queryAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			res.failed++
			res.problem("check %s: final query: %v", td.name, err)
			continue
		}
		var perr error
		switch {
		case ans.Count != acked:
			perr = fmt.Errorf("count %d, acked %d", ans.Count, acked)
		case acked == 0:
			// Never drawn in this run: nothing to compare.
		case td.spec.Kind == service.KindMatrix:
			var e float64
			e, perr = checkGram(p, sent, ans.Gram)
			out.covErrOverEps = math.Max(out.covErrOverEps, e/td.spec.Epsilon)
		case td.spec.Kind == service.KindHH:
			var e float64
			e, perr = checkHH(p, sent, &ans)
			out.hhErrOverEps = math.Max(out.hhErrOverEps, e/td.spec.Epsilon)
		default:
			var e float64
			e, perr = checkQuantiles(p, sent, &ans)
			out.rankErrOverEps = math.Max(out.rankErrOverEps, e/td.spec.Epsilon)
		}
		if perr != nil {
			res.failed++
			res.problem("check %s: %v", td.name, perr)
		}
	}
	for _, e := range []struct {
		name string
		v    float64
	}{{"covariance", out.covErrOverEps}, {"heavy-hitter", out.hhErrOverEps}, {"quantile rank", out.rankErrOverEps}} {
		if e.v > 1 {
			res.failed++
			res.problem("check: %s error is %.3f× its ε bound", e.name, e.v)
		}
	}
	return out
}

// exactGram is Σ_b sent[b]·(block_bᵀ block_b): the Gram of everything
// acked, rebuilt from the per-block send counts.
func exactGram(p *pool, sent []int64) *matrix.Sym {
	exact := matrix.NewSym(dim)
	scratch := matrix.NewDense(0, 0)
	blk := matrix.NewSym(dim)
	for b, c := range sent {
		if c == 0 {
			continue
		}
		blk.Reset()
		blk.AddBlock(p.rows[b], scratch)
		exact.AddScaledSym(float64(c), blk)
	}
	return exact
}

// checkGram returns the paper's covariance error ‖AᵀA − BᵀB‖₂ / ‖A‖²_F.
func checkGram(p *pool, sent []int64, gram [][]float64) (float64, error) {
	if len(gram) != dim {
		return 0, fmt.Errorf("gram has %d rows, want %d", len(gram), dim)
	}
	got := matrix.NewSym(dim)
	for i, row := range gram {
		if len(row) != dim {
			return 0, fmt.Errorf("gram row %d has %d entries, want %d", i, len(row), dim)
		}
		for j := i; j < dim; j++ {
			got.Set(i, j, row[j])
		}
	}
	return metrics.CovarianceError(exactGram(p, sent), got)
}

// exactItems is the exact weight of every value acked to one tracker.
func exactItems(p *pool, sent []int64) (freq map[uint64]float64, total float64) {
	freq = make(map[uint64]float64)
	for b, c := range sent {
		if c == 0 {
			continue
		}
		for e, wt := range gen.ExactFrequencies(p.items[b]) {
			freq[e] += float64(c) * wt
			total += float64(c) * wt
		}
	}
	return freq, total
}

// checkHH returns the largest |reported − exact| weight over the reported
// heavy hitters, as a share of the total weight W.
func checkHH(p *pool, sent []int64, ans *queryAnswer) (float64, error) {
	freq, total := exactItems(p, sent)
	var worst float64
	for _, h := range ans.HeavyHitters {
		worst = math.Max(worst, math.Abs(h.Weight-freq[h.Elem])/total)
	}
	return worst, nil
}

// checkQuantiles returns the largest distance between φW and the rank
// interval of the value answered for φ, as a share of W.
func checkQuantiles(p *pool, sent []int64, ans *queryAnswer) (float64, error) {
	freq, total := exactItems(p, sent)
	vals := make([]uint64, 0, len(freq))
	for v := range freq {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if len(ans.Quantiles) == 0 {
		return 0, fmt.Errorf("no quantiles in the answer")
	}
	var worst float64
	for _, q := range ans.Quantiles {
		// rank(v) lies anywhere in [weight below v, weight at or below v].
		var below, atOrBelow float64
		for _, v := range vals {
			if v > q.Value {
				break
			}
			atOrBelow += freq[v]
			if v < q.Value {
				below += freq[v]
			}
		}
		target := q.Phi * total
		var dist float64
		switch {
		case target < below:
			dist = below - target
		case target > atOrBelow:
			dist = target - atOrBelow
		}
		worst = math.Max(worst, dist/total)
	}
	return worst, nil
}
