package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	distmat "repro"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/service"
	"repro/internal/sketch"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced pass attributes time to layers from outside the program. It
// replays the first periods of the run's own op script, in process and at
// GOMAXPROCS=1, down a ladder of twins: each rung is an independent
// instance of the system fed the identical ops through a deeper public
// entry point, so the difference between two neighbouring rungs is the
// time the layer between them spends itself.
//
//	service.http     Manager.Handler().ServeHTTP         (wire-stream: wire.frame,
//	                                                      Encoder+Decoder+WireBridge.RowBlock)
//	service.tracker  Tracker.IngestRows/Items/Block, Snapshot, Query…
//	facade.session   Session.ProcessRowsAt/ItemsAt, Snapshot, HeavyHitters, Quantile
//	core.tracker     the core/hh/quantile tracker's ProcessRows/Process, Gram, …
//	matrix.addblock  Sym.AddBlock (row workloads only)
//
// Side rungs time one layer's work on the same ops outside the ladder:
// a json.Decoder over the request body, the wire codec over a buffer, the
// WAL's append and group commit, an FD sketch's AppendRows.

// span is one timed call. Spans of one op share Op; Parent is the span
// one rung up for the same op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`         // -1: top of the ladder, or a side rung
	Side   bool   `json:"side,omitempty"` // not part of the ladder
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes sums, by span name, each span's duration minus the durations
// of its child spans: the time the layer spent that no deeper layer
// accounts for.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.dur() - children[s.ID]
	}
	return self
}

// totals sums durations and counts spans by name.
func totals(spans []span) (ns map[string]int64, n map[string]int) {
	ns, n = make(map[string]int64), make(map[string]int)
	for _, s := range spans {
		ns[s.Name] += s.dur()
		n[s.Name]++
	}
	return ns, n
}

// tracedOp is a script op with the lane that issued it.
type tracedOp struct {
	op
	lane int
}

// tracedOps interleaves the first periods of the lanes' scripts (lane 0's
// first op, lane 1's first, lane 0's second, …) — one plausible serial
// order of the concurrent run — and drops the wire barriers, which are
// waits, not work.
func tracedOps(in *inputs, opsPerPeriod [lanes]int, periods int) []tracedOp {
	var out []tracedOp
	for i := 0; ; i++ {
		more := false
		for l := 0; l < lanes; l++ {
			if i >= periods*opsPerPeriod[l] || i >= len(in.scripts[l]) {
				continue
			}
			more = true
			if o := in.scripts[l][i]; o.kind != opBarrier {
				out = append(out, tracedOp{o, l})
			}
		}
		if !more {
			return out
		}
	}
}

// rung is one twin: an instance of the system entered at one layer.
type rung struct {
	name   func(t tracedOp) string // the layer's span name for this op
	ingest func(t tracedOp) error  // nil: the layer has no ingest entry
	query  func(t tracedOp) error  // nil: the layer has no query entry
	pre    func(i int, t tracedOp) // untimed preparation for op i
	post   func(i int, t tracedOp) // untimed bookkeeping after op i
}

func named(s string) func(tracedOp) string { return func(tracedOp) string { return s } }

// replay runs every op through every rung, one rung at a time so each
// twin sees the ops in script order with warm caches, and returns the
// spans. Chain rungs link to the rung above; side rungs stand alone.
func replay(chain, side []rung, ops []tracedOp) ([]span, error) {
	t0 := time.Now()
	var spans []span
	run := func(k int, r rung, above []bool, isSide bool) ([]bool, error) {
		has := make([]bool, len(ops))
		for i, t := range ops {
			f, kind := r.ingest, ":ingest"
			if t.kind == opQuery {
				f, kind = r.query, ":query"
			}
			if f == nil {
				continue
			}
			if r.pre != nil {
				r.pre(i, t)
			}
			start := time.Since(t0)
			err := f(t)
			end := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("bench: traced pass: %s%s op %d: %w", r.name(t), kind, i, err)
			}
			if r.post != nil {
				r.post(i, t)
			}
			parent := -1
			if above != nil && above[i] {
				parent = (k-1)*len(ops) + i
			}
			spans = append(spans, span{Name: r.name(t) + kind, Op: i, ID: k*len(ops) + i, Parent: parent,
				Side: isSide, Start: start.Nanoseconds(), End: end.Nanoseconds()})
			has[i] = true
		}
		return has, nil
	}
	var above []bool
	for k, r := range chain {
		has, err := run(k, r, above, false)
		if err != nil {
			return nil, err
		}
		above = has
	}
	for k, r := range side {
		if _, err := run(len(chain)+k, r, nil, true); err != nil {
			return nil, err
		}
	}
	return spans, nil
}

// recorder is the ResponseWriter of the in-process HTTP rung.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// twins is the ladder of one workload plus the handles the one-off
// measurements after the replay need.
type twins struct {
	chain, side []rung
	closers     []func()

	mgr      *service.Manager   // the service.tracker rung's manager
	trackers []*service.Tracker // … and its trackers, by index
	sessions []*distmat.Session // the facade.session rung's sessions
	gram     *matrix.Sym        // the matrix.addblock rung's accumulator
	commit   *wal.Log           // the wal.append rung's log
	faulted  map[int]bool       // ops during which the service.tracker rung faulted a session in
}

func (tw *twins) close() {
	for i := len(tw.closers) - 1; i >= 0; i-- {
		tw.closers[i]()
	}
}

func sessionOptions(sp service.Spec) []distmat.Option {
	opts := []distmat.Option{distmat.WithSites(sp.Sites), distmat.WithEpsilon(sp.Epsilon)}
	if sp.Dim != 0 {
		opts = append(opts, distmat.WithDim(sp.Dim))
	}
	if sp.Bits != 0 {
		opts = append(opts, distmat.WithBits(sp.Bits))
	}
	if sp.Fast {
		opts = append(opts, distmat.WithFastIngest())
	}
	if sp.Shards > 1 {
		opts = append(opts, distmat.WithShards(sp.Shards))
	}
	return opts
}

func newSession(sp service.Spec) (*distmat.Session, error) {
	switch sp.Kind {
	case service.KindMatrix:
		return distmat.NewMatrixSession(sp.Protocol, sessionOptions(sp)...)
	case service.KindHH:
		return distmat.NewHHSession(sp.Protocol, sessionOptions(sp)...)
	}
	return distmat.NewQuantileSession(sessionOptions(sp)...)
}

// newManager opens a manager configured as the spawned distserve is and
// creates the workload's trackers in it.
func newManager(w *workload, dir string) (*service.Manager, []*service.Tracker, error) {
	opts := service.Options{}
	if w.durable {
		data, err := os.MkdirTemp(dir, "twin-")
		if err != nil {
			return nil, nil, err
		}
		opts = service.Options{DataDir: data, WAL: true, MaxResident: w.maxResident}
	}
	m, err := service.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	var trs []*service.Tracker
	for _, td := range w.trackers {
		t, err := m.Create(td.name, td.spec)
		if err != nil {
			m.Close()
			return nil, nil, err
		}
		trs = append(trs, t)
	}
	return m, trs, nil
}

var quantilePhis = []float64{0.5, 0.99}

// buildTwins assembles the ladder for w. dir holds the data directories
// of the durable twins.
func buildTwins(w *workload, p *pool, dir string) (*twins, error) {
	tw := &twins{faulted: make(map[int]bool)}
	ok := false
	defer func() {
		if !ok {
			tw.close()
		}
	}()
	kindOf := func(t tracedOp) string { return w.trackers[t.tracker].spec.Kind }
	siteOf := func(t tracedOp) int {
		if w.wire {
			return t.lane
		}
		return blockSite(int(t.block))
	}
	ctx := context.Background()

	// Rung 0: the transport's handler.
	mgr0, _, err := newManager(w, dir)
	if err != nil {
		return nil, err
	}
	tw.closers = append(tw.closers, func() { mgr0.Close() })
	handler := mgr0.Handler()
	serve := func(method, path string, body []byte) error {
		req, err := http.NewRequest(method, path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		rec := &recorder{header: make(http.Header), code: http.StatusOK}
		handler.ServeHTTP(rec, req)
		if rec.code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.code, rec.body.Bytes())
		}
		return nil
	}
	top := rung{
		name: named("service.http"),
		query: func(t tracedOp) error {
			return serve("GET", queryPath(w, int(t.tracker), int(t.variant)), nil)
		},
	}
	if w.wire {
		var frame bytes.Buffer
		enc, dec := wire.NewEncoder(&frame, nil), wire.NewDecoder(&frame, nil)
		bridge := mgr0.WireBridge()
		var seq [lanes]uint64
		top.name = func(t tracedOp) string {
			if t.kind == opQuery {
				return "service.http"
			}
			return "wire.frame"
		}
		top.ingest = func(t tracedOp) error {
			seq[t.lane]++
			if err := enc.RowBlock(seq[t.lane], t.lane, dim, p.rows[t.block]); err != nil {
				return err
			}
			fr, err := dec.Next()
			if err != nil {
				return err
			}
			_, _, err = bridge.RowBlock(w.trackers[t.tracker].name, fr.Block.Site, fr.Block.Seq, fr.Block.Rows)
			return err
		}
	} else {
		path := "/rows"
		if w.items {
			path = "/items"
		}
		top.ingest = func(t tracedOp) error {
			return serve("POST", "/trackers/"+w.trackers[t.tracker].name+path, p.bodies[t.block])
		}
	}

	// Rung 1: the service's tracker, past the transport.
	mgr1, trs, err := newManager(w, dir)
	if err != nil {
		return nil, err
	}
	tw.mgr, tw.trackers = mgr1, trs
	tw.closers = append(tw.closers, func() { mgr1.Close() })
	var seq1 [lanes]uint64
	var faultsSeen int64
	tracker := rung{
		name: named("service.tracker"),
		ingest: func(t tracedOp) error {
			switch {
			case w.wire:
				seq1[t.lane]++
				return trs[t.tracker].IngestBlock(ctx, t.lane, seq1[t.lane], p.rows[t.block])
			case w.items:
				return trs[t.tracker].IngestItems(ctx, siteOf(t), p.items[t.block])
			}
			return trs[t.tracker].IngestRows(ctx, siteOf(t), p.rows[t.block])
		},
		query: func(t tracedOp) error {
			var err error
			switch kindOf(t) {
			case service.KindMatrix:
				_, err = trs[t.tracker].Snapshot()
			case service.KindHH:
				_, _, err = trs[t.tracker].QueryHeavyHitters(hhPhi)
			default:
				_, _, err = trs[t.tracker].QueryQuantiles(quantilePhis)
			}
			return err
		},
	}
	if w.durable {
		tracker.post = func(i int, _ tracedOp) {
			if f := mgr1.Metrics().Tenancy.Faults; f > faultsSeen {
				tw.faulted[i], faultsSeen = true, f
			}
		}
	}

	// Rung 2: the facade's sessions; rung 3: the trackers under them.
	var under []*distmat.Session
	for _, td := range w.trackers {
		for _, dst := range []*[]*distmat.Session{&tw.sessions, &under} {
			s, err := newSession(td.spec)
			if err != nil {
				return nil, err
			}
			*dst = append(*dst, s)
			tw.closers = append(tw.closers, func() { s.Close() })
		}
	}
	session := rung{
		name: named("facade.session"),
		ingest: func(t tracedOp) error {
			if w.items {
				return tw.sessions[t.tracker].ProcessItemsAt(siteOf(t), p.items[t.block])
			}
			return tw.sessions[t.tracker].ProcessRowsAt(siteOf(t), p.rows[t.block])
		},
		query: func(t tracedOp) error {
			s := tw.sessions[t.tracker]
			switch kindOf(t) {
			case service.KindMatrix:
				s.Snapshot()
			case service.KindHH:
				_, err := s.HeavyHitters(hhPhi)
				return err
			default:
				for _, phi := range quantilePhis {
					if _, err := s.Quantile(phi); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
	inner := rung{
		name: func(t tracedOp) string {
			switch kindOf(t) {
			case service.KindHH:
				return "hh.tracker"
			case service.KindQuantile:
				return "quantile.tracker"
			}
			return "core.tracker"
		},
		ingest: func(t tracedOp) error {
			s, site := under[t.tracker], siteOf(t)
			switch kindOf(t) {
			case service.KindMatrix:
				core.ProcessRows(s.Matrix(), site, p.rows[t.block])
			case service.KindHH:
				proto := s.HH()
				for _, it := range p.items[t.block] {
					proto.Process(site, it.Elem, it.Weight)
				}
			default:
				qt := s.Quantiles()
				for _, it := range p.items[t.block] {
					qt.Process(site, it.Elem, it.Weight)
				}
			}
			return nil
		},
		query: func(t tracedOp) error {
			s := under[t.tracker]
			switch kindOf(t) {
			case service.KindMatrix:
				s.Matrix().Gram()
			case service.KindHH:
				distmat.HeavyHitters(s.HH(), hhPhi)
			default:
				for _, phi := range quantilePhis {
					s.Quantiles().Quantile(phi)
				}
			}
			return nil
		},
	}
	tw.chain = []rung{top, tracker, session, inner}

	if !w.items {
		tw.gram = matrix.NewSym(dim)
		scratch := matrix.NewDense(0, 0)
		tw.chain = append(tw.chain, rung{
			name:   named("matrix.addblock"),
			ingest: func(t tracedOp) error { tw.gram.AddBlock(p.rows[t.block], scratch); return nil },
		})

		var frame bytes.Buffer
		enc, dec := wire.NewEncoder(&frame, nil), wire.NewDecoder(&frame, nil)
		encode := func(i int, t tracedOp) error { return enc.RowBlock(uint64(i+1), siteOf(t), dim, p.rows[t.block]) }
		fd := sketch.NewFD(int(1/matrixEps), dim)
		tw.side = append(tw.side,
			rung{name: named("wire.encode"),
				ingest: func(t tracedOp) error { return encode(0, t) },
				post:   func(int, tracedOp) { frame.Reset() }},
			rung{name: named("wire.decode"),
				pre:    func(i int, t tracedOp) { _ = encode(i, t) }, // a failed encode shows as the decode's error
				ingest: func(tracedOp) error { _, err := dec.Next(); return err }},
			rung{name: named("sketch.fd_append"),
				ingest: func(t tracedOp) error { fd.AppendRows(p.rows[t.block]); return nil }},
		)
	}
	if !w.wire {
		tw.side = append(tw.side, rung{name: named("json.decode"), ingest: func(t tracedOp) error {
			dec := json.NewDecoder(bytes.NewReader(p.bodies[t.block]))
			if w.items {
				var req struct {
					Site  *int `json:"site"`
					Items []struct {
						Elem   *uint64  `json:"elem"`
						Value  *uint64  `json:"value"`
						Weight *float64 `json:"weight"`
					} `json:"items"`
				}
				return dec.Decode(&req)
			}
			var req struct {
				Site *int        `json:"site"`
				Rows [][]float64 `json:"rows"`
			}
			return dec.Decode(&req)
		}})
	}
	if w.durable {
		// Two logs: one times the append and commits untimed, the other
		// appends untimed and times the commit.
		var logs [2]*wal.Log
		for i := range logs {
			d, err := os.MkdirTemp(dir, "wal-")
			if err != nil {
				return nil, err
			}
			l, err := wal.Open(wal.Options{Dir: d}, func(*wal.Record) error { return nil })
			if err != nil {
				return nil, err
			}
			logs[i] = l
			tw.closers = append(tw.closers, func() { l.Close() })
		}
		tw.commit = logs[0]
		record := func(t tracedOp) *wal.Record {
			items := make([]wal.Item, len(p.items[t.block]))
			for i, it := range p.items[t.block] {
				items[i] = wal.Item{Elem: it.Elem, Weight: it.Weight}
			}
			return &wal.Record{Kind: wal.KindItems, Tracker: w.trackers[t.tracker].name, Site: siteOf(t), Items: items}
		}
		var rec *wal.Record
		var lsn uint64
		tw.side = append(tw.side,
			rung{name: named("wal.append"),
				pre:    func(_ int, t tracedOp) { rec = record(t) },
				ingest: func(tracedOp) (err error) { lsn, err = logs[0].Append(rec); return err },
				post:   func(int, tracedOp) { _ = logs[0].WaitDurable(lsn) }}, // a lost disk fails the next Append
			rung{name: named("wal.commit_wait"),
				pre:    func(_ int, t tracedOp) { lsn, _ = logs[1].Append(record(t)) }, // an lsn of 0 is durable at once; Append's error resurfaces from WaitDurable
				ingest: func(tracedOp) error { return logs[1].WaitDurable(lsn) }},
		)
	}
	ok = true
	return tw, nil
}

// tracedPass runs the ladder over the first periods of the run's script,
// writes the spans to bench/out/trace-<workload>.json, and fills lm with
// the per-layer metrics derived from them.
func tracedPass(c *runConfig, in *inputs, opsPerPeriod [lanes]int, sz sizes, runDir string, lm metricSet, res *runResult) error {
	w := c.w
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ops := tracedOps(in, opsPerPeriod, sz.tracePeriods)
	tw, err := buildTwins(w, in.pool, runDir)
	if err != nil {
		return err
	}
	defer tw.close()
	spans, err := replay(tw.chain, tw.side, ops)
	if err != nil {
		return err
	}
	if err := writeTrace(c, ops, spans); err != nil {
		return err
	}

	self := selfTimes(spans)
	ns, n := totals(spans)
	per := func(m map[string]int64, name string, div float64) float64 {
		if div == 0 {
			return 0
		}
		return float64(m[name]) / div
	}
	topIngest := "service.http:ingest"
	if w.wire {
		topIngest = "wire.frame:ingest"
	}
	batches := float64(n[topIngest])
	updates := batches * float64(w.batch)
	queries := float64(n["service.http:query"])

	lm["service.http_self_us_per_batch"] = per(self, "service.http:ingest", batches*1e3)
	lm["service.json_decode_us_per_batch"] = per(ns, "json.decode:ingest", batches*1e3)
	lm["service.ingest_self_us_per_batch"] = per(self, "service.tracker:ingest", batches*1e3)
	lm["service.query_us"] = per(ns, "service.http:query", queries*1e3)
	lm["service.query_encode_us"] = per(self, "service.http:query", queries*1e3)
	lm["facade.process_self_ns_per_update"] = per(self, "facade.session:ingest", updates)
	lm["facade.snapshot_us"] = per(ns, "facade.session:query", queries*1e3)
	lm["core.process_ns_per_row"] = per(self, "core.tracker:ingest", updates)
	lm["core.shard_merge_us"] = per(ns, "core.tracker:query", float64(n["core.tracker:query"])*1e3)
	lm["matrix.addblock_ns_per_row"] = per(ns, "matrix.addblock:ingest", updates)
	lm["sketch.fd_append_ns_per_row"] = per(ns, "sketch.fd_append:ingest", updates)
	lm["wire.encode_ns_per_row"] = per(ns, "wire.encode:ingest", updates)
	lm["wire.decode_ns_per_row"] = per(ns, "wire.decode:ingest", updates)
	lm["wal.append_us_per_batch"] = per(ns, "wal.append:ingest", batches*1e3)
	lm["wal.commit_wait_us_per_batch"] = per(ns, "wal.commit_wait:ingest", batches*1e3)
	for _, k := range []string{"hh", "quantile"} {
		lm[k+".process_ns_per_item"] = per(ns, k+".tracker:ingest", float64(n[k+".tracker:ingest"]*w.batch))
		lm[k+".query_us"] = per(ns, k+".tracker:query", float64(n[k+".tracker:query"])*1e3)
	}

	// The top rung's replay rate: beside the untraced updates_per_s it
	// shows what tracing adds and the network removes.
	var topNs int64
	ladderSelf := make(map[string]int64)
	for _, s := range spans {
		if s.Side {
			continue
		}
		ladderSelf[s.Name] = self[s.Name]
		if s.Parent < 0 {
			topNs += s.dur()
		}
	}
	lm["trace.updates_per_s"] = updates / (float64(topNs) / 1e9)
	res.notes = append(res.notes, ladderNote("ingest", ladderSelf), ladderNote("query", ladderSelf))

	return oneOffs(w, in.pool, tw, spans, lm)
}

// ladderNote renders one op kind's self times, largest first.
func ladderNote(kind string, self map[string]int64) string {
	type entry struct {
		name string
		ns   int64
	}
	var es []entry
	var sum int64
	for name, v := range self {
		if layer, ok := strings.CutSuffix(name, ":"+kind); ok {
			es = append(es, entry{layer, v})
			sum += v
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].ns > es[j].ns })
	var b strings.Builder
	fmt.Fprintf(&b, "ladder self time, %s ops:", kind)
	for _, e := range es {
		fmt.Fprintf(&b, " %s %.0f%%", e.name, 100*float64(e.ns)/float64(max(sum, 1)))
	}
	return b.String()
}

// oneOffs takes the measurements that are not per-op: state size and
// save time, a checkpoint, the cost of a fault-in, a WAL replay, an
// eigendecomposition.
func oneOffs(w *workload, p *pool, tw *twins, spans []span, lm metricSet) error {
	var state bytes.Buffer
	t0 := time.Now()
	if err := tw.sessions[0].SaveState(&state); err != nil {
		return err
	}
	lm["facade.savestate_ms"] = msSince(t0)
	lm["facade.state_bytes"] = float64(state.Len())

	if tw.gram != nil {
		const reps = 20
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if _, _, err := matrix.EigSym(tw.gram); err != nil {
				return err
			}
		}
		lm["matrix.eig_us"] = msSince(t0) * 1e3 / reps
	}
	if !w.durable {
		return nil
	}

	// A fault-in's cost: what the service.tracker rung's ops that faulted
	// a session in took, over those that did not.
	var faulting, resident []float64
	for _, s := range spans {
		if s.Name == "service.tracker:ingest" {
			if tw.faulted[s.Op] {
				faulting = append(faulting, float64(s.dur())/1e6)
			} else {
				resident = append(resident, float64(s.dur())/1e6)
			}
		}
	}
	if len(faulting) > 0 {
		lm["service.faultin_ms_p50"] = median(faulting) - median(resident)
	}

	// A checkpoint of a tracker that has just taken a batch.
	if err := tw.trackers[0].IngestItems(context.Background(), 0, p.items[0]); err != nil {
		return err
	}
	t0 = time.Now()
	if err := tw.mgr.Checkpoint(w.trackers[0].name); err != nil {
		return err
	}
	lm["service.checkpoint_ms"] = msSince(t0)

	st := tw.commit.Stats()
	if payload := float64(st.Appends) * float64(w.batch) * 16; payload > 0 { // an item is a uint64 and a float64
		lm["wal.bytes_per_payload_byte"] = float64(st.Bytes) / payload
	}
	t0 = time.Now()
	if err := tw.commit.ReplayFrom(0, func(*wal.Record) error { return nil }); err != nil {
		return err
	}
	lm["wal.replay_ms"] = msSince(t0)
	return nil
}

// writeTrace writes the spans to bench/out/trace-<workload>.json.
func writeTrace(c *runConfig, ops []tracedOp, spans []span) error {
	out := filepath.Join(c.lay.benchDir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Ops        int    `json:"ops"`
		Spans      []span `json:"spans"`
	}{c.w.Name, c.seed, 1, len(ops), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+c.w.Name+".json"), data, 0o644)
}
