package node

import (
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// TestTCPMatrixDeployment deploys matrix P2 over loopback TCP: coordinator
// server, m dialing sites, concurrent feeders, then verifies the covariance
// guarantee end to end (the cmd/distdemo path, as a test).
func TestTCPMatrixDeployment(t *testing.T) {
	const m, eps, d = 4, 0.2, 44
	srv, err := NewCoordinatorServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coord, err := NewMatCoordinator(m, eps, d, srv)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(coord)
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	rows := gen.LowRankMatrix(gen.PAMAPLike(2000))
	perSite := make([][][]float64, m)
	for i, r := range rows {
		perSite[i%m] = append(perSite[i%m], r)
	}

	sites := make([]*MatSite, m)
	clients := make([]*SiteClient, m)
	for i := 0; i < m; i++ {
		var cli *SiteClient
		site, err := NewMatSite(i, m, eps, d, SenderFunc(func(msg Message) error {
			return cli.Send(msg)
		}))
		if err != nil {
			t.Fatal(err)
		}
		cli, err = DialSite(srv.Addr(), i, site)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = site
		clients[i] = cli
	}

	// settle waits until nothing is in flight: the coordinator has handled
	// every message the sites emitted and its last broadcast has reached
	// every site.
	settle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			var sent int64
			for _, s := range sites {
				sent += s.Sent()
			}
			settled := coord.Received() == sent
			if hist := coord.EstimateHistory(); settled && len(hist) > 0 {
				for _, s := range sites {
					settled = settled && s.Estimate() == hist[len(hist)-1]
				}
			}
			if settled {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("deployment did not settle in 5s")
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Feed in doubling rounds, settling between them. Until the first
	// broadcast lands a site thresholds against F̂ = 1 and sends about two
	// messages per row, and a site with the sole-row shortcut outruns the
	// socket; with a settle per round no site's F̂ is ever staler than a
	// factor of two, so the message count below is deterministic enough to
	// assert on.
	for lo, n := 0, 1; lo < len(perSite[0]); lo, n = lo+n, 2*n {
		var wg sync.WaitGroup
		for s := 0; s < m; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for _, r := range perSite[s][lo:min(lo+n, len(perSite[s]))] {
					if err := sites[s].HandleRow(r); err != nil {
						t.Errorf("feed: %v", err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
		settle()
	}

	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	e, err := metrics.CovarianceError(exact, coord.Gram())
	if err != nil {
		t.Fatal(err)
	}
	if e > 1.5*eps {
		t.Fatalf("covariance error %v over TCP exceeds 1.5ε", e)
	}
	t.Logf("coordinator received %d messages for %d rows", coord.Received(), len(rows))
	if coord.Received() == 0 || coord.Received() >= int64(len(rows)) {
		t.Fatalf("coordinator received %d messages for %d rows", coord.Received(), len(rows))
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("client loop: %v", err)
		}
	}
}
