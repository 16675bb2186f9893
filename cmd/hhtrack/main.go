// Command hhtrack runs one distributed weighted heavy-hitters protocol over
// a Zipfian stream and reports accuracy and communication, for interactive
// exploration of the protocol trade-offs.
//
// Usage:
//
//	hhtrack [-protocol NAME] [-n N] [-sites M] [-eps E] [-phi PHI]
//	        [-beta B] [-skew S] [-copies C] [-seed SEED] [-shards P]
//
// NAME is any protocol in the registry (see distmat.HHProtocols):
// p1, p2, p3, p4, p4median, exact.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	distmat "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hhtrack: ")
	protoHelp := "protocol name: " + strings.Join(distmat.HHProtocols(), ", ")
	var (
		protocol = flag.String("protocol", "p2", protoHelp)
		n        = flag.Int("n", 1_000_000, "stream length")
		m        = flag.Int("sites", 50, "number of sites")
		eps      = flag.Float64("eps", 0.01, "error parameter ε")
		phi      = flag.Float64("phi", 0.05, "heavy-hitter threshold φ")
		beta     = flag.Float64("beta", 1000, "weight upper bound β")
		skew     = flag.Float64("skew", 2.0, "Zipf skew")
		copies   = flag.Int("copies", 3, "independent instances for p4median")
		seed     = flag.Int64("seed", 1, "random seed")
		shards   = flag.Int("shards", 0, "parallel tracker shards merged at query time (0/1 = unsharded)")
	)
	flag.StringVar(protocol, "proto", *protocol, protoHelp+" (alias of -protocol)")
	flag.Parse()

	cfg := distmat.DefaultZipfConfig(*n)
	cfg.Beta = *beta
	cfg.Skew = *skew
	cfg.Seed = *seed
	items := distmat.ZipfStream(cfg)

	sess, err := distmat.NewHHSession(*protocol,
		distmat.WithSites(*m),
		distmat.WithEpsilon(*eps),
		distmat.WithSeed(*seed+1),
		distmat.WithCopies(*copies),
		distmat.WithShards(*shards),
		distmat.WithAssigner(distmat.NewUniformRandom(*m, *seed+2)))
	if err != nil {
		if errors.Is(err, distmat.ErrUnknownProtocol) {
			log.Print(err)
			os.Exit(2)
		}
		log.Fatal(err)
	}
	defer sess.Close()
	if err := sess.ProcessItems(items); err != nil {
		log.Fatalf("ingest: %v", err)
	}

	exact := distmat.NewHHExact(*m)
	exactSess, err := distmat.WrapHHSession(exact, distmat.WithAssigner(distmat.NewUniformRandom(*m, *seed+2)))
	if err != nil {
		log.Fatal(err)
	}
	if err := exactSess.ProcessItems(items); err != nil {
		log.Fatalf("ingest: %v", err)
	}
	truth := exact.TrueHeavyHitters(*phi)

	returned, err := sess.HeavyHitters(*phi)
	if err != nil {
		log.Fatal(err)
	}
	p := sess.HH()
	res := distmat.EvaluateHH(returned, truth, p.Estimate)
	snap := sess.Snapshot()

	fmt.Printf("protocol       %s (ε=%g, m=%d)\n", p.Name(), *eps, *m)
	if sess.Shards() > 1 {
		fmt.Printf("shards         %d (items per shard: %v)\n", sess.Shards(), sess.ShardRows())
	}
	fmt.Printf("stream         N=%d Zipf(skew=%g) weights Unif[1,%g] W=%.6g\n",
		len(items), *skew, *beta, exact.EstimateTotal())
	fmt.Printf("true %g-HHs    %d\n", *phi, len(truth))
	fmt.Printf("returned       %d\n", len(returned))
	fmt.Printf("recall         %.4f\n", res.Recall)
	fmt.Printf("precision      %.4f\n", res.Precision)
	fmt.Printf("avg rel err    %.3g\n", res.AvgRelErr)
	fmt.Printf("messages       %d (naive baseline: %d)\n", snap.Stats.Total(), len(items))
	fmt.Printf("detail         %s\n", snap.Stats)

	fmt.Println("\ntop heavy hitters (estimate vs exact):")
	for i, e := range returned {
		if i >= 10 {
			break
		}
		fmt.Printf("  %8d  est=%12.1f  exact=%12.1f\n", e.Elem, e.Weight, exact.Estimate(e.Elem))
	}
}
