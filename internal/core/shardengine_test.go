package core

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/stream"
)

// ShardEngine contract suite, run over both instantiations (matrix rows,
// weighted items). The protocol-level properties (merged error bounds,
// one-shard identity against real trackers, persistence round-trips) live
// with the wrappers; here the contract under test is the machine itself —
// each site's blocks go to the shard that owns the site, in order, blocks
// are atomic, failures surface at the flush barrier instead of
// deadlocking, Close releases the workers, and the tallies restore with
// range checks.

// recorder is the shard-side log both instantiations share: every applied
// element and its site, in order. A poisoned element panics instead,
// modeling a failed protocol.
type recorder[E any] struct {
	mu     sync.Mutex
	got    []E
	sites  []int
	poison func(E) bool
}

func (r *recorder[E]) record(site int, e E) {
	if r.poison != nil && r.poison(e) {
		panic("poisoned element")
	}
	r.mu.Lock()
	r.got = append(r.got, e)
	r.sites = append(r.sites, site)
	r.mu.Unlock()
}

func (r *recorder[E]) Stats() stream.Stats { return stream.Stats{} }

// itemRecorder is a recording ItemShard.
type itemRecorder struct{ recorder[gen.WeightedItem] }

func (r *itemRecorder) Process(site int, elem uint64, w float64) {
	r.record(site, gen.WeightedItem{Elem: elem, Weight: w})
}

// rowRecorder is a recording Tracker over 2-dimensional rows.
type rowRecorder struct {
	recorder[[]float64]
	m int
}

func (r *rowRecorder) Name() string { return "rec" }
func (r *rowRecorder) Dim() int     { return 2 }
func (r *rowRecorder) Eps() float64 { return 0.5 }
func (r *rowRecorder) Sites() int   { return r.m }
func (r *rowRecorder) Gram() *matrix.Sym {
	return matrix.NewSym(2)
}
func (r *rowRecorder) EstimateFrobenius() float64 { return 0 }
func (r *rowRecorder) ProcessRows(site int, rows [][]float64) {
	for _, row := range rows {
		r.record(site, append([]float64(nil), row...)) // the staged row is pooled
	}
}

// engineSites is the site count every engine of the suite runs with.
const engineSites = 5

// engineCase adapts one instantiation to the generic suite.
type engineCase[S ShardStats, E any] struct {
	// build starts an engine for engineSites sites over p recording shards
	// that panic on elements poison reports (nil: healthy shards).
	build func(p int, poison func(E) bool) *ShardEngine[S, E]
	// buildNil runs the constructor with a builder that returns no shard.
	buildNil func()
	// stream returns n valid elements, distinguishable by position.
	stream func(n int) []E
	// invalid lists elements the kind must reject synchronously.
	invalid map[string]E
	// poison is a valid element that makes a poisonable shard panic.
	poison   E
	poisoned func(E) bool
}

var itemCase = engineCase[*itemRecorder, gen.WeightedItem]{
	build: func(p int, poison func(gen.WeightedItem) bool) *ShardEngine[*itemRecorder, gen.WeightedItem] {
		return NewShardedItemTracker(p, engineSites, func(int, int) *itemRecorder {
			return &itemRecorder{recorder[gen.WeightedItem]{poison: poison}}
		})
	},
	buildNil: func() { NewShardedItemTracker(1, engineSites, func(int, int) ItemShard { return nil }) },
	stream: func(n int) []gen.WeightedItem {
		items := make([]gen.WeightedItem, n)
		for i := range items {
			items[i] = gen.WeightedItem{Elem: uint64(i), Weight: 1 + float64(i%5)}
		}
		return items
	},
	invalid: map[string]gen.WeightedItem{
		"zero weight":     {Elem: 2, Weight: 0},
		"negative weight": {Elem: 2, Weight: -1},
		"NaN weight":      {Elem: 2, Weight: math.NaN()},
		"+Inf weight":     {Elem: 2, Weight: math.Inf(1)},
	},
	poison:   gen.WeightedItem{Elem: 1 << 40, Weight: 1},
	poisoned: func(it gen.WeightedItem) bool { return it.Elem == 1<<40 },
}

var rowCase = engineCase[Tracker, []float64]{
	build: func(p int, poison func([]float64) bool) *ShardEngine[Tracker, []float64] {
		return NewShardedTracker(p, engineSites, func(_, sites int) Tracker {
			return &rowRecorder{recorder[[]float64]{poison: poison}, sites}
		}).ShardEngine
	},
	buildNil: func() { NewShardedTracker(1, engineSites, func(int, int) Tracker { return nil }) },
	stream: func(n int) [][]float64 {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{float64(i), 1}
		}
		return rows
	},
	invalid: map[string][]float64{
		"short row": {1},
		"long row":  {1, 2, 3},
	},
	poison:   []float64{-1, -1},
	poisoned: func(row []float64) bool { return row[0] == -1 },
}

func TestShardEngineContract(t *testing.T) {
	t.Run("rows", func(t *testing.T) {
		testEngineContract(t, rowCase, func(tr Tracker) *recorder[[]float64] { return &tr.(*rowRecorder).recorder })
	})
	t.Run("items", func(t *testing.T) {
		testEngineContract(t, itemCase, func(r *itemRecorder) *recorder[gen.WeightedItem] { return &r.recorder })
	})
}

func mustPanic(t *testing.T, name string, f func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
	return nil
}

func testEngineContract[S ShardStats, E any](t *testing.T, c engineCase[S, E], log func(S) *recorder[E]) {
	seen := func(e *ShardEngine[S, E]) (got [][]E, n int) {
		for i := 0; i < e.ShardCount(); i++ {
			got = append(got, log(e.Shard(i)).got)
			n += len(got[i])
		}
		return got, n
	}

	// Site j's blocks land, whole and in order, on shard j mod P as its
	// local site j/P, however long they are (chunks only bound the copy),
	// and per-shard tallies match what each shard applied.
	t.Run("deal is deterministic", func(t *testing.T) {
		const p = 3
		e := c.build(p, nil)
		defer e.Close()
		chunk := e.kind.chunk()
		in := c.stream(2*chunk + 17)
		want := make([][]E, p)
		wantSites := make([][]int, p)
		for round := 0; round < 2; round++ {
			for site := 0; site < engineSites; site++ {
				blk := in[site*(len(in)/engineSites) : (site+1)*(len(in)/engineSites)]
				if site == round {
					blk = in // one block past the chunk size
				}
				e.Deal(site, blk)
				want[site%p] = append(want[site%p], blk...)
				for range blk {
					wantSites[site%p] = append(wantSites[site%p], site/p)
				}
			}
		}
		e.Flush()

		got, _ := seen(e)
		tallies := e.ShardRows()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("shard %d saw %d elements, want %d in feed order", i, len(got[i]), len(want[i]))
			}
			if tallies[i] != int64(len(want[i])) {
				t.Errorf("ShardRows()[%d] = %d, want %d", i, tallies[i], len(want[i]))
			}
			if got := log(e.Shard(i)).sites; !reflect.DeepEqual(got, wantSites[i]) {
				t.Errorf("shard %d saw local sites %v, want %v", i, got, wantSites[i])
			}
		}
		if got := e.ShardCount(); got != p {
			t.Errorf("ShardCount() = %d, want %d", got, p)
		}
		if got := e.Sites(); got != engineSites {
			t.Errorf("Sites() = %d, want %d", got, engineSites)
		}
		// More shards than sites would leave shards without a site.
		wide := c.build(engineSites+3, nil)
		defer wide.Close()
		if got := wide.ShardCount(); got != engineSites {
			t.Errorf("%d shards over %d sites: ShardCount() = %d, want %d", engineSites+3, engineSites, got, engineSites)
		}
	})

	// An invalid element anywhere in the block, or an invalid site, panics
	// before anything is enqueued, so the shards see nothing — for batches
	// and for one-element blocks alike.
	t.Run("blocks are atomic", func(t *testing.T) {
		e := c.build(1, nil)
		defer e.Close()
		ok := c.stream(3)
		for name, bad := range c.invalid {
			mustPanic(t, name+" mid-batch", func() { e.Deal(0, []E{ok[0], bad, ok[2]}) })
			mustPanic(t, name+" alone", func() { e.Deal(0, []E{bad}) })
		}
		mustPanic(t, "site past the end", func() { e.Deal(engineSites, ok) })
		mustPanic(t, "negative site", func() { e.Deal(-1, ok[:1]) })
		e.Flush()
		if _, n := seen(e); n != 0 {
			t.Fatalf("rejected blocks leaked %d elements into the shard", n)
		}
		if got := e.ShardRows(); got[0] != 0 {
			t.Fatalf("rejected blocks moved the tally to %v", got)
		}
		e.Deal(0, ok[:1])
		e.Flush()
		if _, n := seen(e); n != 1 {
			t.Fatalf("clean block applied %d elements, want 1", n)
		}
	})

	// A shard panic mid-ingest is captured, the barrier still releases (no
	// deadlock), FlushErr reports it without panicking, Flush and Stats
	// re-raise it, later ingest drains unapplied, and Close still stops
	// the workers.
	t.Run("failure is captured", func(t *testing.T) {
		e := c.build(2, c.poisoned)
		e.Deal(0, []E{c.stream(1)[0], c.poison})
		if r := e.FlushErr(); r == nil {
			t.Fatal("FlushErr() = nil after a shard panic")
		} else if !strings.Contains(r.(string), "poisoned") {
			t.Fatalf("FlushErr() = %v, want the shard panic value", r)
		}
		mustPanic(t, "Flush after a shard panic", e.Flush)
		mustPanic(t, "Stats after a shard panic", func() { e.Stats() })
		_, before := seen(e)
		e.Deal(0, c.stream(3*e.kind.chunk()))
		if r := e.FlushErr(); r == nil {
			t.Fatal("failure cleared by later ingest")
		}
		if _, after := seen(e); after != before {
			t.Fatalf("a failed engine applied %d more elements", after-before)
		}
		e.Close()
		e.Close() // idempotent after failure too
	})

	// Close flushes, is idempotent, keeps the tally reads working, and
	// further ingestion panics with the closed message.
	t.Run("lifecycle", func(t *testing.T) {
		e := c.build(1, nil)
		e.Deal(0, c.stream(10))
		e.Close()
		if _, n := seen(e); n != 10 {
			t.Fatalf("Close applied %d elements, want 10", n)
		}
		e.Close()
		e.Flush() // no-op on a closed engine
		if got := e.Stats(); got != (stream.Stats{}) {
			t.Errorf("Stats() = %v after Close, want zero", got)
		}
		if got := e.StatsApplied(); got != (stream.Stats{}) {
			t.Errorf("StatsApplied() = %v, want zero", got)
		}
		e.Deal(0, nil) // an empty block is a no-op even when closed
		r := mustPanic(t, "ingest after Close", func() { e.Deal(0, c.stream(1)) })
		if s, _ := r.(string); !strings.Contains(s, "closed") {
			t.Fatalf("ingest after Close panicked with %v, want the closed message", r)
		}
	})

	// Tallies restore or zero, keep counting from the restored values, and
	// a tally slice of the wrong length is rejected with an error (not a
	// panic) that leaves them as they were.
	t.Run("deal state restores", func(t *testing.T) {
		const p = 3
		e := c.build(p, nil)
		defer e.Close()
		if err := e.RestoreTallies([]int64{4, 5, 6}); err != nil {
			t.Fatal(err)
		}
		if got := e.ShardRows(); !reflect.DeepEqual(got, []int64{4, 5, 6}) {
			t.Fatalf("after restore: tallies %v, want [4 5 6]", got)
		}
		e.Deal(4, c.stream(1))
		e.Flush()
		if got := e.ShardRows(); !reflect.DeepEqual(got, []int64{4, 6, 6}) {
			t.Fatalf("a block from site 4 moved the tallies to %v, want [4 6 6]", got)
		}
		if err := e.RestoreTallies(nil); err != nil {
			t.Fatal(err)
		}
		if got := e.ShardRows(); !reflect.DeepEqual(got, []int64{0, 0, 0}) {
			t.Fatalf("ShardRows() = %v after nil-tally restore, want zeros", got)
		}
		if err := e.RestoreTallies([]int64{1}); err == nil {
			t.Error("short tally slice accepted, want error")
		}
		if got := e.ShardRows(); !reflect.DeepEqual(got, []int64{0, 0, 0}) {
			t.Errorf("a rejected restore moved the tallies to %v", got)
		}
	})

	// Bad shard counts and nil shards panic at construction, before any
	// worker starts.
	t.Run("constructor validates", func(t *testing.T) {
		mustPanic(t, "zero shards", func() { c.build(0, nil) })
		mustPanic(t, "nil shard", c.buildNil)
	})
}

// TestShardedItemSiteCount: the site count is a constructor argument of
// both instantiations, validated up front, and each shard is built with
// its share ⌈(m−k)/P⌉ of the sites.
func TestShardedItemSiteCount(t *testing.T) {
	mustPanic(t, "zero sites", func() {
		NewShardedItemTracker(1, 0, func(int, int) *itemRecorder { return &itemRecorder{} })
	})
	mustPanic(t, "zero sites (rows)", func() {
		NewShardedTracker(1, 0, func(int, int) Tracker { return &rowRecorder{} })
	})
	var got []int
	e := NewShardedItemTracker(4, 10, func(_, sites int) *itemRecorder {
		got = append(got, sites)
		return &itemRecorder{}
	})
	e.Close()
	if want := []int{3, 3, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("10 sites over 4 shards built shards of %v sites, want %v", got, want)
	}
}

// countBarriers puts a forwarder in front of every worker queue of e that
// counts the barriers posted to each worker; the forwarders close the real
// queues when Close closes theirs. The workers keep the queues they were
// started on, so e.queues can be swapped under them.
func countBarriers[S ShardStats, E any](e *ShardEngine[S, E]) (posted func() []int64) {
	counts := make([]atomic.Int64, len(e.queues))
	for i, q := range e.queues {
		spy := make(chan shardBlock[E], shardQueueDepth)
		e.queues[i] = spy
		go func() {
			for blk := range spy {
				if blk.barrier != nil {
					counts[i].Add(1)
				}
				q <- blk
			}
			close(q)
		}()
	}
	return func() []int64 {
		out := make([]int64, len(counts))
		for i := range counts {
			out[i] = counts[i].Load()
		}
		return out
	}
}

// withProcs sets GOMAXPROCS to procs until t ends, so an engine built
// meanwhile runs min(P, procs) workers.
func withProcs(t testing.TB, procs int) {
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestFlushBarriersOnlyDealtShards: a flush posts a barrier to each worker
// dealt to since the last flush and to no other, none with nothing dealt,
// and the state read after it is Float64bits-identical — Gram, F̂ and
// tallies — to an engine fed the same blocks that flushes every worker
// every time. It runs with one worker per shard and with two shards per
// worker.
func TestFlushBarriersOnlyDealtShards(t *testing.T) {
	const n, d, m, p = 1200, 44, 10, 4 // d = 44: the PAMAP-like generator's dimension
	rows := gen.LowRankMatrix(gen.PAMAPLike(n))
	build := func(_, sites int) Tracker { return NewP2Fast(sites, 0.1, d) }
	for _, w := range []int{p, 2} {
		withProcs(t, w)
		e, all := NewShardedTracker(p, m, build), NewShardedTracker(p, m, build)
		defer e.Close()
		defer all.Close()
		if got := len(e.queues); got != w {
			t.Fatalf("GOMAXPROCS %d: %d workers for %d shards, want %d", w, got, p, w)
		}
		posted := countBarriers(e.ShardEngine)

		want := make([]int64, w)
		for i, blk := 0, 0; i < n; i, blk = i+40, blk+1 {
			site := (blk * 7) % m // one shard per deal, revisiting shards unevenly
			e.ProcessRows(site, rows[i:i+40])
			all.ProcessRows(site, rows[i:i+40])
			if blk%3 == 2 {
				continue // flush after every third deal: several workers pending
			}
			for k := range all.dirty {
				all.dirty[k] = true
			}
			for k := range want {
				if e.dirty[k] {
					want[k]++
				}
			}
			ge, gall := e.Gram(), all.Gram()
			if !reflect.DeepEqual(posted(), want) {
				t.Fatalf("W=%d, after block %d: barriers per worker %v, want %v", w, blk, posted(), want)
			}
			for k, v := range gall.RawData() {
				if math.Float64bits(ge.RawData()[k]) != math.Float64bits(v) {
					t.Fatalf("W=%d, after block %d: Gram entry %d is %v, flush-everything engine %v", w, blk, k, ge.RawData()[k], v)
				}
			}
			if fe, fa := e.EstimateFrobenius(), all.EstimateFrobenius(); math.Float64bits(fe) != math.Float64bits(fa) {
				t.Fatalf("W=%d, after block %d: F̂ %v, flush-everything engine %v", w, blk, fe, fa)
			}
			if se, sa := e.Stats(), all.Stats(); se != sa {
				t.Fatalf("W=%d, after block %d: tallies %v, flush-everything engine %v", w, blk, se, sa)
			}
			if !reflect.DeepEqual(posted(), want) {
				t.Fatalf("W=%d, after block %d: reads with nothing dealt posted barriers: %v, want %v", w, blk, posted(), want)
			}
		}
		if got := posted(); slices.Max(got) == 0 {
			t.Fatalf("W=%d: no barrier posted at all", w)
		}
	}
}
