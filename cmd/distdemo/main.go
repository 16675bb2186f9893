// Command distdemo deploys matrix tracking protocol P2 for real: a
// coordinator on an internal/wire listener plus m sites' worth of
// goroutines dialing in over loopback, streaming a synthetic low-rank
// dataset concurrently, then comparing the coordinator's approximation
// against the exact covariance.
//
// Usage:
//
//	distdemo [-protocol p2] [-sites M] [-eps E] [-n N] [-addr HOST:PORT]
//
// -protocol is validated against the matrix registry
// (distmat.MatrixProtocols); the deployable runtime currently implements
// the headline protocol p2 only, so other registered names are rejected
// with a pointer to the single-threaded simulators.
//
// The run is a check: it exits 1 if the covariance error exceeds ε or the
// coordinator received as many messages as there were rows.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	distmat "repro"
	"repro/internal/matrix"
	"repro/internal/node"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distdemo: ")
	var (
		protocol = flag.String("protocol", "p2", "matrix protocol name: "+strings.Join(distmat.MatrixProtocols(), ", ")+" (runtime: p2 only)")
		m        = flag.Int("sites", 8, "number of sites")
		eps      = flag.Float64("eps", 0.1, "error parameter ε")
		n        = flag.Int("n", 20_000, "rows to stream")
		addr     = flag.String("addr", "127.0.0.1:0", "coordinator listen address")
	)
	flag.Parse()

	// Validate the name against the registry, then check it is one the
	// concurrent runtime can deploy.
	info, ok := distmat.LookupMatrixProtocol(*protocol)
	if !ok {
		log.Printf("unknown matrix protocol %q (registered: %v)", *protocol, distmat.MatrixProtocols())
		os.Exit(2)
	}
	if info.Name != "p2" {
		log.Printf("protocol %q is registered but has no concurrent runtime yet; only p2 does (use cmd/mtrack to simulate it)", *protocol)
		os.Exit(2)
	}

	cfg := distmat.PAMAPLike(*n)
	rows := distmat.LowRankMatrix(cfg)
	d := cfg.D

	// Coordinator process: wire listener + protocol logic.
	coord, ln, err := node.ListenWire(*addr, func(broadcast node.Sender) (*node.MatCoordinator, error) {
		return node.NewMatCoordinator(*m, *eps, d, broadcast)
	})
	if err != nil {
		log.Fatal(err)
	}
	go ln.Serve() // returns once ln.Close runs at the end of main
	fmt.Printf("coordinator listening on %s\n", ln.Addr())

	// Site processes: each dials the coordinator and streams its shard.
	perSite := make([][][]float64, *m)
	for i, r := range rows {
		perSite[i%*m] = append(perSite[i%*m], r)
	}

	start := time.Now()
	var wg sync.WaitGroup
	conns := make([]*wire.SiteConn, *m)
	for id := 0; id < *m; id++ {
		site, conn, err := node.DialWire(wire.SiteConfig{Addr: ln.Addr(), Site: id}, func(out node.Sender) (*node.MatSite, error) {
			return node.NewMatSite(id, *m, *eps, d, out)
		})
		if err != nil {
			log.Fatal(err)
		}
		conns[id] = conn
		wg.Add(1)
		go func(id int, site *node.MatSite) {
			defer wg.Done()
			for _, r := range perSite[id] {
				if err := site.HandleRow(r); err != nil {
					log.Fatalf("site %d: %v", id, err)
				}
			}
		}(id, site)
	}
	wg.Wait()

	// Wait until the coordinator has applied every message sent, then
	// evaluate.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for id, c := range conns {
		if err := c.Drain(ctx); err != nil {
			log.Fatalf("site %d: drain: %v", id, err)
		}
	}
	elapsed := time.Since(start)

	exact := matrix.NewSym(d)
	for _, r := range rows {
		exact.AddOuter(1, r)
	}
	covErr, err := distmat.CovarianceError(exact, coord.Gram())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed      %d rows (d=%d) from %d wire sites in %v\n", len(rows), d, *m, elapsed.Round(time.Millisecond))
	fmt.Printf("cov error     %.4g (guarantee ε=%g)\n", covErr, *eps)
	fmt.Printf("coordinator   received %d messages, issued %d broadcasts\n",
		coord.Received(), coord.Broadcasts())
	fmt.Printf("vs naive      %d row transfers avoided (%.1fx saving)\n",
		int64(len(rows))-coord.Received(), float64(len(rows))/float64(coord.Received()))

	for _, c := range conns {
		c.Close()
	}
	ln.Close()

	if covErr > *eps {
		log.Fatalf("covariance error %.4g exceeds ε = %g", covErr, *eps)
	}
	if coord.Received() >= int64(len(rows)) {
		log.Fatalf("coordinator received %d messages for %d rows: no saving", coord.Received(), len(rows))
	}
}
