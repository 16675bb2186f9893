package node

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
)

// startTCPHHCluster deploys an HH P2 coordinator server plus m TCP site
// clients on loopback, returning everything needed to feed and tear down.
func startTCPHHCluster(t *testing.T, m int, eps float64) (*HHCoordinator, *CoordinatorServer, []*HHSite, []*SiteClient) {
	t.Helper()
	srv, err := NewCoordinatorServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewHHCoordinator(m, eps, srv)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetHandler(coord)
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	sites := make([]*HHSite, m)
	clients := make([]*SiteClient, m)
	for i := 0; i < m; i++ {
		// Build the site first with a placeholder sender, then swap in the
		// client: DialSite needs the broadcast receiver.
		var cli *SiteClient
		site, err := NewHHSite(i, m, eps, SenderFunc(func(msg Message) error {
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
	return coord, srv, sites, clients
}

func TestTCPHHDeployment(t *testing.T) {
	const m, eps = 4, 0.05
	coord, srv, sites, clients := startTCPHHCluster(t, m, eps)
	defer srv.Close()

	cfg := gen.DefaultZipfConfig(20_000)
	cfg.Beta = 20
	items := gen.ZipfStream(cfg)

	perSite := make([][]gen.WeightedItem, m)
	for i, it := range items {
		perSite[i%m] = append(perSite[i%m], it)
	}
	var wg sync.WaitGroup
	for s := 0; s < m; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, it := range perSite[s] {
				if err := sites[s].HandleItem(it.Elem, it.Weight); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	// Site reports travel over real TCP; wait for the coordinator to drain.
	w := gen.TotalWeight(items)
	deadline := time.Now().Add(5 * time.Second)
	for coord.EstimateTotal() < (1-2*eps)*w && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	exact := gen.ExactFrequencies(items)
	for e, fe := range exact {
		if fe < 0.01*w {
			continue // spot-check meaningful elements only
		}
		if got := coord.Estimate(e); math.Abs(got-fe) > 2*eps*w {
			t.Fatalf("element %d: |%v − %v| > 2εW over TCP", e, got, fe)
		}
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatalf("close client: %v", err)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("client receive loop: %v", err)
		}
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv, err := NewCoordinatorServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
}

// TestTCPServerCloseWhileDialing closes the server while sites keep
// dialing it. A connection Accept returns as Close runs must be either
// counted before Close waits or closed unserved: counting it after Close
// has started waiting is the WaitGroup misuse -race reports, and a lost
// count would let Close return under a live serveConn. Run with -race.
func TestTCPServerCloseWhileDialing(t *testing.T) {
	for round := 0; round < 50; round++ {
		srv, err := NewCoordinatorServer("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()

		stop := make(chan struct{})
		dialed := make(chan struct{}, 1)
		var dialers sync.WaitGroup
		for i := 0; i < 4; i++ {
			dialers.Add(1)
			go func() {
				defer dialers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					conn, err := net.Dial("tcp", srv.Addr())
					if err != nil {
						continue // refused once the listener is closed
					}
					conn.Close()
					select {
					case dialed <- struct{}{}:
					default:
					}
				}
			}()
		}
		<-dialed
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		dialers.Wait()
		if err := <-served; err != nil {
			t.Fatalf("round %d: Serve returned %v after Close, want nil", round, err)
		}
	}
}

func TestTCPDialFailure(t *testing.T) {
	if _, err := DialSite("127.0.0.1:1", 0, nil); err == nil {
		t.Fatal("expected dial error")
	}
}
