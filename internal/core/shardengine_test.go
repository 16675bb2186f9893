package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/stream"
)

// ShardEngine contract suite, run over both instantiations (matrix rows,
// weighted items). The protocol-level properties (merged error bounds,
// one-shard identity against real trackers, persistence round-trips) live
// with the wrappers; here the contract under test is the machine itself —
// the deal is deterministic, blocks are atomic, failures surface at the
// flush barrier instead of deadlocking, Close releases the workers, and
// the deal state restores with range checks.

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

// rowRecorder is a recording Tracker over 2-dimensional rows for 2 sites.
type rowRecorder struct{ recorder[[]float64] }

func (r *rowRecorder) Name() string { return "rec" }
func (r *rowRecorder) Dim() int     { return 2 }
func (r *rowRecorder) Eps() float64 { return 0.5 }
func (r *rowRecorder) Sites() int   { return 2 }
func (r *rowRecorder) Gram() *matrix.Sym {
	return matrix.NewSym(2)
}
func (r *rowRecorder) EstimateFrobenius() float64 { return 0 }
func (r *rowRecorder) ProcessRow(site int, row []float64) {
	r.record(site, append([]float64(nil), row...)) // the staged row is pooled
}

// engineCase adapts one instantiation to the generic suite. Both run with
// two sites (site indices 0 and 1 are valid).
type engineCase[S ShardStats, E any] struct {
	// build starts an engine over p recording shards that panic on
	// elements poison reports (nil: healthy shards).
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
		return NewShardedItemTracker(p, 2, func(int) *itemRecorder {
			return &itemRecorder{recorder[gen.WeightedItem]{poison: poison}}
		})
	},
	buildNil: func() { NewShardedItemTracker(1, 2, func(int) ItemShard { return nil }) },
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
		return NewShardedTracker(p, func(int) Tracker {
			return &rowRecorder{recorder[[]float64]{poison: poison}}
		}).ShardEngine
	},
	buildNil: func() { NewShardedTracker(1, func(int) Tracker { return nil }) },
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

	// The shard an element lands on is a pure function of the call sequence
	// and P — chunks deal round-robin — and per-shard tallies match what
	// each shard applied.
	t.Run("deal is deterministic", func(t *testing.T) {
		const p = 3
		e := c.build(p, nil)
		defer e.Close()
		chunk := e.kind.chunk()
		in := c.stream(5*chunk + 17)
		e.Deal(1, in)
		e.Flush()

		want := make([][]E, p)
		for start, shard := 0, 0; start < len(in); start, shard = start+chunk, (shard+1)%p {
			want[shard] = append(want[shard], in[start:min(start+chunk, len(in))]...)
		}
		got, _ := seen(e)
		tallies := e.ShardRows()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("shard %d saw %d elements, want %d in deal order", i, len(got[i]), len(want[i]))
			}
			if tallies[i] != int64(len(want[i])) {
				t.Errorf("ShardRows()[%d] = %d, want %d", i, tallies[i], len(want[i]))
			}
			for _, s := range log(e.Shard(i)).sites {
				if s != 1 {
					t.Fatalf("shard %d saw site %d, want 1", i, s)
				}
			}
		}
		if got := e.ShardCount(); got != p {
			t.Errorf("ShardCount() = %d, want %d", got, p)
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
		mustPanic(t, "site past the end", func() { e.Deal(2, ok) })
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

	// A restored cursor redirects the next deal, tallies restore or zero,
	// and out-of-range snapshots are rejected with errors (not panics).
	t.Run("deal state restores", func(t *testing.T) {
		const p = 3
		e := c.build(p, nil)
		defer e.Close()
		if err := e.RestoreDeal(2, []int64{4, 5, 6}); err != nil {
			t.Fatal(err)
		}
		if got := e.ShardRows(); e.next != 2 || !reflect.DeepEqual(got, []int64{4, 5, 6}) {
			t.Fatalf("after restore: cursor %d, tallies %v; want 2, [4 5 6]", e.next, got)
		}
		e.Deal(0, c.stream(1))
		e.Flush()
		if got, _ := seen(e); len(got[2]) != 1 {
			t.Fatal("restored cursor did not redirect the next block to shard 2")
		}
		if err := e.RestoreDeal(0, nil); err != nil {
			t.Fatal(err)
		}
		if got := e.ShardRows(); !reflect.DeepEqual(got, []int64{0, 0, 0}) {
			t.Fatalf("ShardRows() = %v after nil-tally restore, want zeros", got)
		}
		for name, err := range map[string]error{
			"cursor = p":        e.RestoreDeal(p, nil),
			"negative cursor":   e.RestoreDeal(-1, nil),
			"short tally slice": e.RestoreDeal(0, []int64{1}),
		} {
			if err == nil {
				t.Errorf("%s accepted, want error", name)
			}
		}
		if e.next != 0 {
			t.Errorf("rejected restores moved the cursor to %d", e.next)
		}
	})

	// Bad shard counts and nil shards panic at construction, before any
	// worker starts.
	t.Run("constructor validates", func(t *testing.T) {
		mustPanic(t, "zero shards", func() { c.build(0, nil) })
		mustPanic(t, "nil shard", c.buildNil)
	})
}

// TestShardedItemSiteCount: the item instantiation's site count is a
// constructor argument (the row one asks its shards), validated up front.
func TestShardedItemSiteCount(t *testing.T) {
	mustPanic(t, "zero sites", func() {
		NewShardedItemTracker(1, 0, func(int) *itemRecorder { return &itemRecorder{} })
	})
}
