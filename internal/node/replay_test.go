package node

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hh"
)

// recorder is a Sender tap: it logs every site→coordinator message, then
// forwards it down the link it replaced (batch path included).
type recorder struct {
	next Sender
	log  *[]Message
}

func (r recorder) Send(m Message) error {
	*r.log = append(*r.log, m)
	return r.next.Send(m)
}

func (r recorder) SendAll(ms []Message) error {
	*r.log = append(*r.log, ms...)
	return sendAll(r.next, ms)
}

// TestLocalMatClusterReplay is core's TestP2HalvesReplay one layer up: the
// messages a sequentially fed in-process deployment put on its links,
// replayed in order into a bare coordinator half, must reproduce the
// MatCoordinator's Gram and F̂ bit for bit — the runtime adds a lock and an
// outbox to the halves, never arithmetic.
func TestLocalMatClusterReplay(t *testing.T) {
	const m, eps, d, block = 4, 0.1, 44, 96
	rows := gen.LowRankMatrix(gen.PAMAPLike(2500))
	for _, fast := range []bool{false, true} {
		cl, err := newLocalMatCluster(m, eps, d, fast)
		if err != nil {
			t.Fatal(err)
		}
		var log []Message
		for _, s := range cl.Sites {
			s.out = recorder{next: s.out, log: &log}
		}
		for lo, site := 0, 0; lo < len(rows); lo, site = lo+block, (site+1)%m {
			if err := cl.FeedRows(site, rows[lo:min(lo+block, len(rows))]); err != nil {
				t.Fatal(err)
			}
		}

		if got, want := int64(len(log)), cl.Coordinator.Received(); got != want || got == 0 {
			t.Fatalf("fast=%v: recorded %d messages, coordinator received %d", fast, got, want)
		}
		replay := core.NewP2Coordinator(m, d)
		var history []float64
		for _, msg := range log {
			if msg.Kind == KindRow {
				replay.Row(msg.Vec)
			} else if fhat, b := replay.Scalar(msg.Value); b {
				history = append(history, fhat)
			}
		}
		if a, b := replay.Estimate(), cl.Coordinator.EstimateFrobenius(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("fast=%v: replayed F̂ %v, coordinator %v", fast, a, b)
		}
		if !sameBits(history, cl.Coordinator.EstimateHistory()) {
			t.Fatalf("fast=%v: replayed broadcasts %v, coordinator %v", fast, history, cl.Coordinator.EstimateHistory())
		}
		if !sameBits(replay.Gram().RawData(), cl.Coordinator.Gram().RawData()) {
			t.Fatalf("fast=%v: replayed Gram differs from the coordinator's", fast)
		}
	}
}

// TestLocalHHClusterReplay is the same gate for heavy-hitters P2.
func TestLocalHHClusterReplay(t *testing.T) {
	const m, eps = 4, 0.05
	items := gen.ZipfStream(gen.DefaultZipfConfig(20_000))
	cl, err := NewLocalHHCluster(m, eps)
	if err != nil {
		t.Fatal(err)
	}
	var log []Message
	for _, s := range cl.Sites {
		s.out = recorder{next: s.out, log: &log}
	}
	for i, it := range items {
		if err := cl.Feed(i%m, it.Elem, it.Weight); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := int64(len(log)), cl.Coordinator.Received(); got != want || got == 0 {
		t.Fatalf("recorded %d messages, coordinator received %d", got, want)
	}
	replay := hh.NewP2Coordinator(m)
	var history []float64
	for _, msg := range log {
		if msg.Kind == KindElement {
			replay.Element(msg.Elem, msg.Value)
		} else if what, b := replay.Scalar(msg.Value); b {
			history = append(history, what)
		}
	}
	if a, b := replay.EstimateTotal(), cl.Coordinator.EstimateTotal(); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("replayed Ŵ %v, coordinator %v", a, b)
	}
	if !sameBits(history, cl.Coordinator.EstimateHistory()) {
		t.Fatalf("replayed broadcasts %v, coordinator %v", history, cl.Coordinator.EstimateHistory())
	}
	cands := replay.Candidates(math.Inf(-1))
	if len(cands) == 0 {
		t.Fatal("replay tracks no element")
	}
	for _, c := range cands {
		if got := cl.Coordinator.Estimate(c.Elem); math.Float64bits(got) != math.Float64bits(c.Weight) {
			t.Fatalf("element %d: replayed estimate %v, coordinator %v", c.Elem, c.Weight, got)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
