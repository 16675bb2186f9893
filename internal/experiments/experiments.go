// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 plus the appendix's P4 study). Each experiment
// returns plain-text tables whose rows/series mirror what the paper plots;
// `go run ./cmd/experiments` prints them.
//
// The workloads are the paper's where reproducible (Zipf skew 2, weights
// Unif[1,β]) and the documented synthetic substitutes for the PAMAP and
// YearPredictionMSD datasets otherwise (see DESIGN.md). Default scales are
// reduced from the paper's (10⁷ items, 629k/300k rows) so the full suite
// runs in minutes; Config exposes everything.
package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	distmat "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hh"
	"repro/internal/metrics"
	"repro/internal/plot"
	"repro/internal/stream"
)

// Config sets the workload scales and sweep grids.
type Config struct {
	HHItems int     // Zipf stream length (paper: 10⁷)
	MatRows int     // matrix stream rows per dataset (paper: 629,250 / 300,000)
	Sites   int     // default m (paper: 50)
	Phi     float64 // heavy-hitter threshold φ (paper: 0.05)
	Beta    float64 // weight upper bound β (paper: 1000)
	Seed    int64

	// HHProtos and MatProtos select the protocols every sweep runs, as
	// registry names (distmat.HHProtocols / distmat.MatrixProtocols).
	// The paper's sweeps use p1–p4 for both problems.
	HHProtos  []string
	MatProtos []string

	HHEpsList  []float64 // Fig 1 sweep (paper: 5e-4 … 5e-2)
	MatEpsList []float64 // Fig 2/3 sweep (paper: 5e-3 … 5e-1)
	BetaList   []float64 // Fig 1(f) sweep
	SiteList   []int     // Fig 2/3 (c,d) sweep (paper: 10 … 100)

	PamapRankK int // Table 1 rank for the low-rank dataset (paper: 30)
	MSDRankK   int // Table 1 rank for the high-rank dataset (paper: 50)

	Progress io.Writer // optional progress log (nil = silent)
}

// paperProtos is the protocol set of the paper's sweeps.
func paperProtos() []string { return []string{"p1", "p2", "p3", "p4"} }

// Default returns a configuration that reproduces every qualitative shape
// of the paper's evaluation in a few minutes of CPU.
func Default() Config {
	return Config{
		HHItems:    1_000_000,
		MatRows:    30_000,
		Sites:      50,
		Phi:        0.05,
		Beta:       1000,
		Seed:       1,
		HHProtos:   paperProtos(),
		MatProtos:  paperProtos(),
		HHEpsList:  []float64{5e-4, 1e-3, 5e-3, 1e-2, 5e-2},
		MatEpsList: []float64{5e-3, 1e-2, 5e-2, 1e-1, 5e-1},
		BetaList:   []float64{1, 10, 100, 1000, 10000},
		SiteList:   []int{10, 25, 50, 75, 100},
		PamapRankK: 30,
		MSDRankK:   50,
	}
}

// Quick returns a configuration small enough for unit tests and benchmarks
// (a few seconds) while keeping every sweep non-trivial.
func Quick() Config {
	return Config{
		HHItems:    60_000,
		MatRows:    4_000,
		Sites:      10,
		Phi:        0.05,
		Beta:       100,
		Seed:       1,
		HHProtos:   paperProtos(),
		MatProtos:  paperProtos(),
		HHEpsList:  []float64{1e-3, 1e-2, 5e-2},
		MatEpsList: []float64{1e-2, 1e-1, 5e-1},
		BetaList:   []float64{1, 100, 10000},
		SiteList:   []int{5, 10, 20},
		PamapRankK: 30,
		MSDRankK:   50,
	}
}

// Table is one rendered experiment output.
type Table struct {
	ID      string // "Fig 1(a)", "Table 1", ...
	Title   string
	Columns []string
	Rows    [][]string
	Notes   string

	// Chartable marks sweep tables (first column = x variable, remaining
	// columns = one series each) that can be rendered as an ASCII figure;
	// LogX/LogY select the axes, matching the paper's log-log plots.
	Chartable  bool
	LogX, LogY bool
}

// Chart converts a chartable sweep table into an ASCII chart.
func (t *Table) Chart() (*plot.Chart, error) {
	if !t.Chartable {
		return nil, fmt.Errorf("experiments: table %s is not chartable", t.ID)
	}
	c := &plot.Chart{
		Title:  fmt.Sprintf("%s: %s", t.ID, t.Title),
		XLabel: t.Columns[0],
		LogX:   t.LogX,
		LogY:   t.LogY,
	}
	for col := 1; col < len(t.Columns); col++ {
		s := plot.Series{Label: t.Columns[col]}
		for _, row := range t.Rows {
			x, errX := strconv.ParseFloat(row[0], 64)
			y, errY := strconv.ParseFloat(row[col], 64)
			if errX != nil || errY != nil {
				return nil, fmt.Errorf("experiments: non-numeric cell in %s", t.ID)
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		c.Series = append(c.Series, s)
	}
	return c, nil
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "-- %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Runner executes experiments, memoizing shared sweeps.
type Runner struct {
	cfg Config

	zipf      []gen.WeightedItem
	hhSweep   map[float64][]hhResult // by ε
	matSweeps map[string]*matSweep   // by dataset name
}

// NewRunner returns a Runner over cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:       cfg,
		hhSweep:   make(map[float64][]hhResult),
		matSweeps: make(map[string]*matSweep),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Progress != nil {
		fmt.Fprintf(r.cfg.Progress, format+"\n", args...)
	}
}

// fmtG renders a float compactly for tables.
func fmtG(v float64) string { return fmt.Sprintf("%.4g", v) }

func fmtInt(v int64) string { return fmt.Sprintf("%d", v) }

// All runs every experiment in paper order.
func (r *Runner) All() []Table {
	var out []Table
	out = append(out, r.Fig1()...)
	out = append(out, r.Table1())
	out = append(out, r.Fig2()...)
	out = append(out, r.Fig3()...)
	out = append(out, r.Fig4()...)
	out = append(out, r.Fig6()...)
	out = append(out, r.Fig7()...)
	out = append(out, r.Stability()...)
	return out
}

// --- shared workloads ----------------------------------------------------

func (r *Runner) zipfStream() []gen.WeightedItem {
	if r.zipf == nil {
		cfg := gen.DefaultZipfConfig(r.cfg.HHItems)
		cfg.Beta = r.cfg.Beta
		cfg.Seed = r.cfg.Seed
		r.zipf = gen.ZipfStream(cfg)
	}
	return r.zipf
}

// dataset materializes one of the two synthetic matrix workloads.
func (r *Runner) dataset(name string) (rows [][]float64, d, k int) {
	switch name {
	case "PAMAP":
		cfg := gen.PAMAPLike(r.cfg.MatRows)
		cfg.Seed = r.cfg.Seed + 2
		return gen.LowRankMatrix(cfg), cfg.D, r.cfg.PamapRankK
	case "MSD":
		cfg := gen.MSDLike(r.cfg.MatRows)
		cfg.Seed = r.cfg.Seed + 3
		return gen.HighRankMatrix(cfg), cfg.D, r.cfg.MSDRankK
	default:
		panic("experiments: unknown dataset " + name)
	}
}

// --- heavy hitters sweep (Fig 1) -----------------------------------------

type hhResult struct {
	proto string
	eps   float64
	res   metrics.HHResult
	msg   int64
}

// --- registry-driven protocol construction ------------------------------
//
// Every sweep builds its protocol set from the public registry, so the
// harness runs whatever -protocol subset the caller configured. Randomized
// protocols receive seedBase, seedBase+1, ... in list order, which
// reproduces the seeds the harness used before it was registry-driven.

// randomizedNames maps canonical registry names to their Randomized flag,
// for one protocol kind.
func randomizedNames(infos []distmat.ProtocolInfo) map[string]bool {
	out := make(map[string]bool, len(infos))
	for _, info := range infos {
		out[info.Name] = info.Randomized
		for _, a := range info.Aliases {
			out[a] = info.Randomized
		}
	}
	return out
}

var (
	hhRandomized  = randomizedNames(distmat.HHProtocolInfos())
	matRandomized = randomizedNames(distmat.MatrixProtocolInfos())
)

// buildHH constructs the named heavy-hitters protocols via the registry.
func buildHH(names []string, m int, eps float64, seedBase int64) []hh.Protocol {
	out := make([]hh.Protocol, 0, len(names))
	var randIdx int64
	for _, name := range names {
		cfg := distmat.DefaultConfig()
		cfg.Sites, cfg.Epsilon, cfg.Copies = m, eps, 3
		cfg.Seed = seedBase + randIdx
		p, err := distmat.NewHHByName(name, cfg)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		if hhRandomized[strings.ToLower(name)] {
			randIdx++
		}
		out = append(out, p)
	}
	return out
}

// buildMat constructs the named matrix trackers via the registry.
func buildMat(names []string, m int, eps float64, d int, seedBase int64) []core.Tracker {
	out := make([]core.Tracker, 0, len(names))
	var randIdx int64
	for _, name := range names {
		cfg := distmat.DefaultConfig()
		cfg.Sites, cfg.Epsilon, cfg.Dim = m, eps, d
		cfg.Seed = seedBase + randIdx
		t, err := distmat.NewMatrixByName(name, cfg)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		if matRandomized[strings.ToLower(name)] {
			randIdx++
		}
		out = append(out, t)
	}
	return out
}

// hhLabels returns the display names (Protocol.Name) of the configured
// heavy-hitters protocol set, for table columns.
func (r *Runner) hhLabels() []string {
	out := make([]string, len(r.cfg.HHProtos))
	for i, name := range r.cfg.HHProtos {
		info, ok := distmat.LookupHHProtocol(name)
		if !ok {
			panic("experiments: unknown heavy-hitters protocol " + name)
		}
		out[i] = info.Display
	}
	return out
}

// matLabels returns the display names of the configured matrix protocol
// set; withP4=false drops p4, matching the paper's panels that exclude it.
func (r *Runner) matLabels(withP4 bool) []string {
	protos := r.matProtos(withP4)
	out := make([]string, len(protos))
	for i, name := range protos {
		info, ok := distmat.LookupMatrixProtocol(name)
		if !ok {
			panic("experiments: unknown matrix protocol " + name)
		}
		out[i] = info.Display
	}
	return out
}

// matProtos returns the configured matrix protocol names, optionally
// without p4.
func (r *Runner) matProtos(withP4 bool) []string {
	if withP4 {
		return r.cfg.MatProtos
	}
	out := make([]string, 0, len(r.cfg.MatProtos))
	for _, name := range r.cfg.MatProtos {
		if strings.ToLower(name) != "p4" {
			out = append(out, name)
		}
	}
	return out
}

// hhProtocols builds the configured protocols at a given ε.
func (r *Runner) hhProtocols(eps float64) []hh.Protocol {
	return buildHH(r.cfg.HHProtos, r.cfg.Sites, eps, r.cfg.Seed+10)
}

// runHH evaluates all protocols at one ε over the Zipf stream.
func (r *Runner) runHH(eps float64) []hhResult {
	if res, ok := r.hhSweep[eps]; ok {
		return res
	}
	items := r.zipfStream()
	m := r.cfg.Sites

	exact := hh.NewExact(m)
	hh.Run(exact, items, stream.NewUniformRandom(m, r.cfg.Seed+20))
	truth := exact.TrueHeavyHitters(r.cfg.Phi)

	var out []hhResult
	for _, p := range r.hhProtocols(eps) {
		r.logf("Fig1: running %s at ε=%g (N=%d, m=%d)", p.Name(), eps, len(items), m)
		hh.Run(p, items, stream.NewUniformRandom(m, r.cfg.Seed+20))
		returned := hh.HeavyHitters(p, r.cfg.Phi)
		res := metrics.EvaluateHH(returned, truth, p.Estimate)
		out = append(out, hhResult{proto: p.Name(), eps: eps, res: res, msg: p.Stats().Total()})
	}
	r.hhSweep[eps] = out
	return out
}

// Fig1 regenerates Figure 1: the weighted heavy hitters study on the
// Zipf(skew 2) stream — recall, precision, measured error and message count
// versus ε (panels a–d), the error-versus-messages trade-off (panel e), and
// robustness of message count to β (panel f).
func (r *Runner) Fig1() []Table {
	protos := r.hhLabels()
	panels := []struct {
		id, title string
		logY      bool
		value     func(h hhResult) string
	}{
		{"Fig 1(a)", "recall vs ε", false, func(h hhResult) string { return fmtG(h.res.Recall) }},
		{"Fig 1(b)", "precision vs ε", false, func(h hhResult) string { return fmtG(h.res.Precision) }},
		{"Fig 1(c)", "avg err of true HHs vs ε", true, func(h hhResult) string { return fmtG(h.res.AvgRelErr) }},
		{"Fig 1(d)", "messages vs ε", true, func(h hhResult) string { return fmtInt(h.msg) }},
	}

	var out []Table
	for _, panel := range panels {
		t := Table{
			ID:      panel.id,
			Title:   panel.title,
			Columns: append([]string{"eps"}, protos...),
			Notes:   fmt.Sprintf("Zipf skew 2, N=%d, m=%d, φ=%g, β=%g", r.cfg.HHItems, r.cfg.Sites, r.cfg.Phi, r.cfg.Beta),

			Chartable: true,
			LogX:      true,
			LogY:      panel.logY,
		}
		for _, eps := range r.cfg.HHEpsList {
			row := []string{fmtG(eps)}
			for _, h := range r.runHH(eps) {
				row = append(row, panel.value(h))
			}
			t.Rows = append(t.Rows, row)
		}
		out = append(out, t)
	}

	// Panel (e): err vs msg, one series per protocol across the ε sweep.
	te := Table{
		ID:      "Fig 1(e)",
		Title:   "avg err of true HHs vs messages (ε swept per protocol)",
		Columns: []string{"protocol", "eps", "messages", "err"},
		Notes:   "each protocol traces a communication/accuracy trade-off curve",
	}
	for _, eps := range r.cfg.HHEpsList {
		for _, h := range r.runHH(eps) {
			te.Rows = append(te.Rows, []string{h.proto, fmtG(eps), fmtInt(h.msg), fmtG(h.res.AvgRelErr)})
		}
	}
	out = append(out, te)

	// Panel (f): msg vs β at fixed ε.
	const fixedEps = 5e-2
	tf := Table{
		ID:      "Fig 1(f)",
		Title:   fmt.Sprintf("messages vs β at ε=%g", fixedEps),
		Columns: append([]string{"beta"}, protos...),
		Notes:   "message counts are robust to the weight upper bound β",

		Chartable: true,
		LogX:      true,
		LogY:      true,
	}
	for _, beta := range r.cfg.BetaList {
		cfg := gen.DefaultZipfConfig(r.cfg.HHItems)
		cfg.Beta = beta
		cfg.Seed = r.cfg.Seed
		items := gen.ZipfStream(cfg)
		row := []string{fmtG(beta)}
		for _, p := range r.hhProtocols(fixedEps) {
			r.logf("Fig1(f): %s at β=%g", p.Name(), beta)
			hh.Run(p, items, stream.NewUniformRandom(r.cfg.Sites, r.cfg.Seed+21))
			row = append(row, fmtInt(p.Stats().Total()))
		}
		tf.Rows = append(tf.Rows, row)
	}
	out = append(out, tf)
	return out
}

// --- matrix sweeps (Table 1, Figs 2-4, 6-7) ------------------------------

type matResult struct {
	proto string
	eps   float64
	m     int
	err   float64
	msg   int64
}

type matSweep struct {
	epsRows  []matResult // ε sweep at default m (P1, P2, P3, and P4 for Fig 6/7)
	siteRows []matResult // m sweep at ε=0.1
}

// matTrackers builds the configured protocol set for the ε/m sweeps,
// including P4 (when configured) so Figures 6 and 7 come from the same
// runs.
func (r *Runner) matTrackers(m int, eps float64, d int) []core.Tracker {
	return buildMat(r.cfg.MatProtos, m, eps, d, r.cfg.Seed+30)
}

// runMat evaluates a tracker and returns its error and message count.
func runMat(t core.Tracker, rows [][]float64, m int, seed int64) (float64, int64) {
	exact := core.Run(t, rows, stream.NewUniformRandom(m, seed))
	e, err := metrics.CovarianceError(exact, t.Gram())
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return e, t.Stats().Total()
}

// matSweepFor memoizes the ε and m sweeps per dataset.
func (r *Runner) matSweepFor(name string) *matSweep {
	if s, ok := r.matSweeps[name]; ok {
		return s
	}
	rows, d, _ := r.dataset(name)
	s := &matSweep{}
	for _, eps := range r.cfg.MatEpsList {
		for _, t := range r.matTrackers(r.cfg.Sites, eps, d) {
			r.logf("%s: running %s at ε=%g (N=%d, m=%d)", name, t.Name(), eps, len(rows), r.cfg.Sites)
			e, msg := runMat(t, rows, r.cfg.Sites, r.cfg.Seed+40)
			s.epsRows = append(s.epsRows, matResult{proto: t.Name(), eps: eps, m: r.cfg.Sites, err: e, msg: msg})
		}
	}
	const fixedEps = 0.1
	for _, m := range r.cfg.SiteList {
		for _, t := range r.matTrackers(m, fixedEps, d) {
			r.logf("%s: running %s at m=%d (ε=%g)", name, t.Name(), m, fixedEps)
			e, msg := runMat(t, rows, m, r.cfg.Seed+41)
			s.siteRows = append(s.siteRows, matResult{proto: t.Name(), eps: fixedEps, m: m, err: e, msg: msg})
		}
	}
	r.matSweeps[name] = s
	return s
}

// Table1 regenerates Table 1: error and message count for the tracking
// protocols at ε=0.1 next to the FD and SVD baselines computing rank-k
// approximations, on both datasets.
func (r *Runner) Table1() Table {
	t := Table{
		ID:      "Table 1",
		Title:   "raw numbers for PAMAP-like (k=30) and MSD-like (k=50)",
		Columns: []string{"method", "PAMAP err", "PAMAP msg", "MSD err", "MSD msg"},
		Notes:   fmt.Sprintf("protocols at ε=0.1, m=%d; FD/SVD are centralized baselines (send everything)", r.cfg.Sites),
	}
	type cell struct{ err, msg string }
	results := make(map[string][2]cell) // method → [pamap, msd]
	order := []string{"P1", "P2", "P3wor", "P3wr", "FD", "SVD"}

	for di, name := range []string{"PAMAP", "MSD"} {
		rows, d, k := r.dataset(name)
		m := r.cfg.Sites
		const eps = 0.1
		trackers := buildMat([]string{"p1", "p2", "p3", "p3wr"}, m, eps, d, r.cfg.Seed+50)
		labels := []string{"P1", "P2", "P3wor", "P3wr"}
		for i, tr := range trackers {
			r.logf("Table1 %s: %s", name, labels[i])
			e, msg := runMat(tr, rows, m, r.cfg.Seed+52)
			c := results[labels[i]]
			c[di] = cell{fmtG(e), fmtInt(msg)}
			results[labels[i]] = c
		}

		// FD baseline: centralized sketch with ℓ = k rows, evaluated as-is.
		fdCfg := distmat.DefaultConfig()
		fdCfg.Sites, fdCfg.Dim, fdCfg.Rank = m, d, k
		fd, err := distmat.NewMatrixByName("fd", fdCfg)
		if err != nil {
			panic("experiments: " + err.Error())
		}
		exact := core.Run(fd, rows, stream.NewUniformRandom(m, r.cfg.Seed+52))
		eFD, err := metrics.CovarianceError(exact, fd.Gram())
		if err != nil {
			panic(err)
		}
		c := results["FD"]
		c[di] = cell{fmtG(eFD), fmtInt(fd.Stats().Total())}
		results["FD"] = c

		// SVD baseline: the optimal rank-k error σ²_{k+1}/‖A‖²_F.
		eSVD, err := metrics.RankKError(exact, k)
		if err != nil {
			panic(err)
		}
		c = results["SVD"]
		c[di] = cell{fmtG(eSVD), fmtInt(int64(len(rows)))}
		results["SVD"] = c
	}

	for _, method := range order {
		c := results[method]
		t.Rows = append(t.Rows, []string{method, c[0].err, c[0].msg, c[1].err, c[1].msg})
	}
	return t
}

// matrixPanels renders the four panels of Figure 2 or 3 for a dataset.
func (r *Runner) matrixPanels(figID, name string) []Table {
	s := r.matSweepFor(name)
	protos := r.matLabels(false) // the paper's panels exclude P4

	var out []Table
	// (a) err vs ε and (b) msg vs ε.
	ta := Table{ID: figID + "(a)", Title: name + ": err vs ε",
		Columns: append([]string{"eps"}, protos...), Chartable: true, LogX: true, LogY: true}
	tb := Table{ID: figID + "(b)", Title: name + ": messages vs ε",
		Columns: append([]string{"eps"}, protos...), Chartable: true, LogX: true, LogY: true}
	for _, eps := range r.cfg.MatEpsList {
		ra := []string{fmtG(eps)}
		rb := []string{fmtG(eps)}
		for _, proto := range protos {
			for _, mr := range s.epsRows {
				if mr.proto == proto && mr.eps == eps {
					ra = append(ra, fmtG(mr.err))
					rb = append(rb, fmtInt(mr.msg))
				}
			}
		}
		ta.Rows = append(ta.Rows, ra)
		tb.Rows = append(tb.Rows, rb)
	}
	// (c) msg vs m and (d) err vs m.
	tc := Table{ID: figID + "(c)", Title: name + ": messages vs sites (ε=0.1)",
		Columns: append([]string{"m"}, protos...), Chartable: true, LogY: true}
	td := Table{ID: figID + "(d)", Title: name + ": err vs sites (ε=0.1)",
		Columns: append([]string{"m"}, protos...), Chartable: true, LogY: true}
	for _, m := range r.cfg.SiteList {
		rc := []string{fmt.Sprintf("%d", m)}
		rd := []string{fmt.Sprintf("%d", m)}
		for _, proto := range protos {
			for _, mr := range s.siteRows {
				if mr.proto == proto && mr.m == m {
					rc = append(rc, fmtInt(mr.msg))
					rd = append(rd, fmtG(mr.err))
				}
			}
		}
		tc.Rows = append(tc.Rows, rc)
		td.Rows = append(td.Rows, rd)
	}
	return append(out, ta, tb, tc, td)
}

// Fig2 regenerates Figure 2 (the low-rank PAMAP-like dataset).
func (r *Runner) Fig2() []Table { return r.matrixPanels("Fig 2", "PAMAP") }

// Fig3 regenerates Figure 3 (the high-rank MSD-like dataset).
func (r *Runner) Fig3() []Table { return r.matrixPanels("Fig 3", "MSD") }

// Fig4 regenerates Figure 4: the messages-versus-error trade-off curves on
// both datasets, derived from the ε sweeps.
func (r *Runner) Fig4() []Table {
	var out []Table
	for i, name := range []string{"PAMAP", "MSD"} {
		s := r.matSweepFor(name)
		t := Table{
			ID:      fmt.Sprintf("Fig 4(%c)", 'a'+i),
			Title:   name + ": messages vs err (ε swept per protocol)",
			Columns: []string{"protocol", "eps", "err", "messages"},
		}
		for _, mr := range s.epsRows {
			if mr.proto == "P4" {
				continue
			}
			t.Rows = append(t.Rows, []string{mr.proto, fmtG(mr.eps), fmtG(mr.err), fmtInt(mr.msg)})
		}
		out = append(out, t)
	}
	return out
}

// p4Panels renders the two panels of Figure 6 or 7: P4's error against the
// working protocols.
func (r *Runner) p4Panels(figID, name string) []Table {
	s := r.matSweepFor(name)
	protos := r.matLabels(true)
	ta := Table{
		ID: figID + "(a)", Title: name + ": err vs ε (P4 vs others)",
		Columns: append([]string{"eps"}, protos...),
		Notes:   "P4 carries no guarantee; its error does not shrink with ε",

		Chartable: true,
		LogX:      true,
		LogY:      true,
	}
	for _, eps := range r.cfg.MatEpsList {
		row := []string{fmtG(eps)}
		for _, proto := range protos {
			for _, mr := range s.epsRows {
				if mr.proto == proto && mr.eps == eps {
					row = append(row, fmtG(mr.err))
				}
			}
		}
		ta.Rows = append(ta.Rows, row)
	}
	tb := Table{
		ID: figID + "(b)", Title: name + ": err vs sites (P4 vs others, ε=0.1)",
		Columns: append([]string{"m"}, protos...),

		Chartable: true,
		LogY:      true,
	}
	for _, m := range r.cfg.SiteList {
		row := []string{fmt.Sprintf("%d", m)}
		for _, proto := range protos {
			for _, mr := range s.siteRows {
				if mr.proto == proto && mr.m == m {
					row = append(row, fmtG(mr.err))
				}
			}
		}
		tb.Rows = append(tb.Rows, row)
	}
	return []Table{ta, tb}
}

// Fig6 regenerates Figure 6 (P4 failure, PAMAP-like).
func (r *Runner) Fig6() []Table { return r.p4Panels("Fig 6", "PAMAP") }

// Fig7 regenerates Figure 7 (P4 failure, MSD-like).
func (r *Runner) Fig7() []Table { return r.p4Panels("Fig 7", "MSD") }
