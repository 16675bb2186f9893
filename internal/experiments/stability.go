package experiments

import (
	"fmt"

	"repro/internal/hh"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Stability regenerates the measurement behind Section 6's remark that
// "both the approximation errors and communication costs of all methods are
// very stable with respect to query time": it queries the coordinator at
// ten equally spaced instants of the stream and reports the error at each.
// The paper prints only the final numbers; this table is the evidence for
// the claim.
func (r *Runner) Stability() []Table {
	const checkpoints = 10
	var out []Table

	// Heavy hitters: avg relative error of the running true heavy hitters.
	items := r.zipfStream()
	m := r.cfg.Sites
	const eps = 1e-3
	protos := buildHH(r.cfg.HHProtos, m, eps, r.cfg.Seed+60)
	exact := hh.NewExact(m)
	asgs := make([]stream.Assigner, len(protos)+1)
	for i := range asgs {
		asgs[i] = stream.NewUniformRandom(m, r.cfg.Seed+62)
	}

	th := Table{
		ID:      "Stability (HH)",
		Title:   fmt.Sprintf("avg err of true HHs at 10 query instants (ε=%g)", eps),
		Columns: append([]string{"instant"}, r.hhLabels()...),
		Notes:   "extra measurement: the paper asserts stability over query time without printing it",
	}
	step := len(items) / checkpoints
	for cp := 1; cp <= checkpoints; cp++ {
		lo, hi := (cp-1)*step, cp*step
		if cp == checkpoints {
			hi = len(items)
		}
		for _, it := range items[lo:hi] {
			exact.Process(asgs[len(protos)].Next(), it.Elem, it.Weight)
		}
		for i, p := range protos {
			for _, it := range items[lo:hi] {
				p.Process(asgs[i].Next(), it.Elem, it.Weight)
			}
		}
		truth := exact.TrueHeavyHitters(r.cfg.Phi)
		row := []string{fmt.Sprintf("%d/%d", cp, checkpoints)}
		for _, p := range protos {
			res := metrics.EvaluateHH(hh.HeavyHitters(p, r.cfg.Phi), truth, p.Estimate)
			row = append(row, fmtG(res.AvgRelErr))
		}
		th.Rows = append(th.Rows, row)
	}
	out = append(out, th)

	// Matrix: covariance error at ten instants on the low-rank dataset.
	rows, d, _ := r.dataset("PAMAP")
	const matEps = 0.1
	trackers := buildMat(r.matProtos(false), m, matEps, d, r.cfg.Seed+63)
	tasg := make([]stream.Assigner, len(trackers))
	for i := range tasg {
		tasg[i] = stream.NewUniformRandom(m, r.cfg.Seed+64)
	}
	exactG := matrix.NewSym(d)

	tm := Table{
		ID:      "Stability (matrix)",
		Title:   fmt.Sprintf("covariance err at 10 query instants (PAMAP-like, ε=%g)", matEps),
		Columns: append([]string{"instant"}, r.matLabels(false)...),
	}
	step = len(rows) / checkpoints
	for cp := 1; cp <= checkpoints; cp++ {
		lo, hi := (cp-1)*step, cp*step
		if cp == checkpoints {
			hi = len(rows)
		}
		for _, row := range rows[lo:hi] {
			exactG.AddOuter(1, row)
		}
		for i, tr := range trackers {
			for j := lo; j < hi; j++ {
				tr.ProcessRows(tasg[i].Next(), rows[j:j+1])
			}
		}
		row := []string{fmt.Sprintf("%d/%d", cp, checkpoints)}
		for _, tr := range trackers {
			e, err := metrics.CovarianceError(exactG, tr.Gram())
			if err != nil {
				panic("experiments: " + err.Error())
			}
			row = append(row, fmtG(e))
		}
		tm.Rows = append(tm.Rows, row)
	}
	out = append(out, tm)
	return out
}
