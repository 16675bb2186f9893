package node

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
)

func TestMsgKindString(t *testing.T) {
	for k, want := range map[MsgKind]string{
		KindTotal: "total", KindElement: "element", KindRow: "row",
		KindEstimate: "estimate", MsgKind(99): "MsgKind(99)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("String(%d) = %q want %q", k, got, want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	drop := SenderFunc(func(Message) error { return nil })
	cases := []func() error{
		func() error { _, err := NewHHSite(-1, 4, 0.1, drop); return err },
		func() error { _, err := NewHHSite(4, 4, 0.1, drop); return err },
		func() error { _, err := NewHHSite(0, 4, 0, drop); return err },
		func() error { _, err := NewHHSite(0, 4, 0.1, nil); return err },
		func() error { _, err := NewHHCoordinator(0, 0.1, drop); return err },
		func() error { _, err := NewHHCoordinator(4, 0.1, nil); return err },
		func() error { _, err := NewMatSite(0, 4, 0.1, 0, drop); return err },
		func() error { _, err := NewMatCoordinator(4, 0.1, 0, drop); return err },
	}
	for i, f := range cases {
		if f() == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestHHSiteRejectsBadInput(t *testing.T) {
	s, err := NewHHSite(0, 2, 0.1, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.HandleItem(1, 0); err == nil {
		t.Fatal("expected error on zero weight")
	}
	if err := s.HandleBroadcast(Message{Kind: KindRow}); err == nil {
		t.Fatal("expected error on wrong broadcast kind")
	}
}

func TestHHCoordinatorRejectsBadKind(t *testing.T) {
	c, err := NewHHCoordinator(2, 0.1, SenderFunc(func(Message) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Handle(Message{Kind: KindEstimate}); err == nil {
		t.Fatal("expected error")
	}
}

func TestBroadcastMonotone(t *testing.T) {
	s, _ := NewHHSite(0, 2, 0.1, SenderFunc(func(Message) error { return nil }))
	s.HandleBroadcast(Message{Kind: KindEstimate, Value: 100})
	s.HandleBroadcast(Message{Kind: KindEstimate, Value: 50}) // stale, reordered
	if got := s.Estimate(); got != 100 {
		t.Fatalf("estimate %v want 100 (reordered broadcast must not regress)", got)
	}
}

// TestLocalHHClusterGuarantee runs the in-process deployment with one
// feeder goroutine per site and verifies the protocol's ε-guarantee holds
// under true concurrency (run with -race).
func TestLocalHHClusterGuarantee(t *testing.T) {
	const m, eps = 8, 0.05
	cl, err := NewLocalHHCluster(m, eps)
	if err != nil {
		t.Fatal(err)
	}

	cfg := gen.DefaultZipfConfig(40_000)
	cfg.Beta = 50
	items := gen.ZipfStream(cfg)

	// Pre-split the stream per site, then feed concurrently.
	perSite := make([][]gen.WeightedItem, m)
	for i, it := range items {
		perSite[i%m] = append(perSite[i%m], it)
	}
	var wg sync.WaitGroup
	for site := 0; site < m; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for _, it := range perSite[site] {
				if err := cl.Feed(site, it.Elem, it.Weight); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
		}(site)
	}
	wg.Wait()

	exact := gen.ExactFrequencies(items)
	w := gen.TotalWeight(items)
	// Concurrent interleaving perturbs roundings but not the guarantee
	// structure: allow 2ε.
	for e, fe := range exact {
		if got := cl.Coordinator.Estimate(e); math.Abs(got-fe) > 2*eps*w {
			t.Fatalf("element %d: |%v − %v| > 2εW", e, got, fe)
		}
	}
	if got := cl.Coordinator.EstimateTotal(); math.Abs(got-w) > 2*eps*w {
		t.Fatalf("total %v vs %v", got, w)
	}
	if cl.Coordinator.Received() == 0 || cl.Coordinator.Broadcasts() == 0 {
		t.Fatal("no traffic recorded")
	}
	// Communication stays well below naive.
	var sent int64
	for _, s := range cl.Sites {
		sent += s.Sent()
	}
	if sent >= int64(len(items)) {
		t.Fatalf("sites sent %d messages for %d items", sent, len(items))
	}
	// Heavy hitters come out sorted and non-empty on a Zipf stream.
	hhs := cl.Coordinator.HeavyHitters(0.05)
	if len(hhs) == 0 {
		t.Fatal("no heavy hitters found")
	}
	for i := 1; i < len(hhs); i++ {
		if hhs[i].Weight > hhs[i-1].Weight {
			t.Fatal("heavy hitters not sorted")
		}
	}
	if cl.Coordinator.HeavyHitters(0) != nil {
		t.Fatal("invalid φ must yield nil")
	}
}

func TestLocalHHClusterFeedValidation(t *testing.T) {
	cl, _ := NewLocalHHCluster(2, 0.1)
	if err := cl.Feed(5, 1, 1); err == nil {
		t.Fatal("expected range error")
	}
}

func BenchmarkLocalHHClusterThroughput(b *testing.B) {
	cl, err := NewLocalHHCluster(8, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gen.DefaultZipfConfig(100_000)
	items := gen.ZipfStream(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i%len(items)]
		if err := cl.Feed(i%8, it.Elem, it.Weight); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
}
