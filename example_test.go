package distmat_test

import (
	"errors"
	"fmt"

	distmat "repro"
)

// ExampleNewMatrixSession tracks a small distributed matrix stream through
// the batch-ingestion session API and verifies the deterministic guarantee
// of protocol P2.
func ExampleNewMatrixSession() {
	const m, eps, d = 4, 0.2, 8

	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 2000, D: d, Beta: 100, Seed: 7})
	sess, err := distmat.NewMatrixSession("p2",
		distmat.WithSites(m),
		distmat.WithEpsilon(eps),
		distmat.WithDim(d),
		distmat.WithAssigner(distmat.NewRoundRobin(m)),
		distmat.WithExactTracking())
	if err != nil {
		panic(err)
	}
	if err := sess.ProcessRows(rows); err != nil {
		panic(err)
	}

	snap := sess.Snapshot()
	covErr, err := distmat.CovarianceError(snap.Exact, snap.Gram)
	if err != nil {
		panic(err)
	}
	fmt.Printf("guarantee holds: %v\n", covErr <= eps)
	fmt.Printf("cheaper than shipping the stream: %v\n",
		snap.Stats.Total() < snap.Count)
	// Output:
	// guarantee holds: true
	// cheaper than shipping the stream: true
}

// ExampleNewMatrix builds a bare tracker from options, wraps it in a
// session that also tracks the exact Gram AᵀA, and checks the covariance
// guarantee against it.
func ExampleNewMatrix() {
	const m, eps, d = 4, 0.2, 8
	tr, err := distmat.NewMatrix("p2", distmat.WithSites(m), distmat.WithEpsilon(eps), distmat.WithDim(d))
	if err != nil {
		panic(err)
	}
	sess, err := distmat.WrapMatrixSession(tr, distmat.WithExactTracking())
	if err != nil {
		panic(err)
	}
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 500, D: d, Beta: 10, Seed: 4})
	if err := sess.ProcessRows(rows); err != nil {
		panic(err)
	}
	snap := sess.Snapshot()
	covErr, err := distmat.CovarianceError(snap.Exact, snap.Gram)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s within ε: %v\n", snap.Protocol, covErr <= eps)
	// Output:
	// p2 within ε: true
}

// ExampleNewMatrixByName selects a protocol from the registry by name —
// the path a -protocol CLI flag takes — and shows the error contract for
// unknown names and invalid configurations.
func ExampleNewMatrixByName() {
	cfg := distmat.DefaultConfig()
	cfg.Sites, cfg.Epsilon, cfg.Dim = 4, 0.2, 8

	tracker, err := distmat.NewMatrixByName("p2", cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println("built:", tracker.Name())

	_, err = distmat.NewMatrixByName("p9", cfg)
	fmt.Println("unknown name rejected:", errors.Is(err, distmat.ErrUnknownProtocol))

	cfg.Epsilon = 1.5
	_, err = distmat.NewMatrixByName("p2", cfg)
	fmt.Println("bad ε rejected:", errors.Is(err, distmat.ErrInvalidConfig))

	fmt.Println("registered:", distmat.MatrixProtocols())
	// Output:
	// built: P2
	// unknown name rejected: true
	// bad ε rejected: true
	// registered: [p1 p2 p2small p3 p3wr p4 fd svd]
}

// ExampleNewHH tracks weighted heavy hitters over a Zipfian stream.
func ExampleNewHH() {
	const m, eps, phi = 4, 0.01, 0.05

	items := distmat.ZipfStream(distmat.DefaultZipfConfig(20000))
	p, err := distmat.NewHH("p2", distmat.WithSites(m), distmat.WithEpsilon(eps))
	if err != nil {
		panic(err)
	}
	sess, err := distmat.WrapHHSession(p, distmat.WithAssigner(distmat.NewUniformRandom(m, 3)))
	if err != nil {
		panic(err)
	}
	if err := sess.ProcessItems(items); err != nil {
		panic(err)
	}

	hot := distmat.HeavyHitters(p, phi)
	fmt.Printf("found heavy hitters: %v\n", len(hot) > 0)
	fmt.Printf("heaviest element: %d\n", hot[0].Elem)
	// Output:
	// found heavy hitters: true
	// heaviest element: 0
}

// ExampleNewFrequentDirections sketches a matrix with the standalone FD
// primitive and reads off its deterministic error witness.
func ExampleNewFrequentDirections() {
	const ell, d = 4, 16
	fd := distmat.NewFrequentDirections(ell, d)

	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 500, D: d, Beta: 10, Seed: 1})
	for _, r := range rows {
		fd.Append(r)
	}
	fmt.Printf("error witness within bound: %v\n", fd.Deducted() <= fd.Total()/float64(ell+1))
	fmt.Printf("sketch rows: %d\n", fd.Rows().Rows())
	// Output:
	// error witness within bound: true
	// sketch rows: 4
}

// ExampleNewQuantile tracks weighted quantiles of a distributed stream, the
// companion problem to heavy hitters.
func ExampleNewQuantile() {
	const m, eps = 4, 0.1
	tr, err := distmat.NewQuantile(distmat.WithSites(m), distmat.WithEpsilon(eps),
		distmat.WithBits(10)) // values in [0, 1024)
	if err != nil {
		panic(err)
	}
	asg := distmat.NewRoundRobin(m)
	for i := 0; i < 10000; i++ {
		tr.Process(asg.Next(), uint64(i%1024), 1)
	}
	med := tr.Quantile(0.5)
	fmt.Printf("median within εW rank of 512: %v\n", med >= 400 && med <= 624)
	// Output:
	// median within εW rank of 512: true
}
