package distmat_test

import (
	"errors"
	"testing"

	distmat "repro"
)

// validMatrixConfig returns a small configuration every matrix protocol
// accepts.
func validMatrixConfig() distmat.Config {
	cfg := distmat.DefaultConfig()
	cfg.Sites, cfg.Epsilon, cfg.Dim, cfg.Seed = 3, 0.3, 10, 5
	return cfg
}

// validHHConfig returns a small configuration every heavy-hitters protocol
// accepts.
func validHHConfig() distmat.Config {
	cfg := distmat.DefaultConfig()
	cfg.Sites, cfg.Epsilon, cfg.Seed, cfg.Copies = 3, 0.1, 5, 3
	return cfg
}

// TestRegistryConstructsEveryMatrixProtocol asserts every registered name
// builds a working tracker that can ingest a stream.
func TestRegistryConstructsEveryMatrixProtocol(t *testing.T) {
	rows := distmat.HighRankMatrix(distmat.MatrixConfig{N: 300, D: 10, Beta: 100, Seed: 5})
	for _, name := range distmat.MatrixProtocols() {
		t.Run(name, func(t *testing.T) {
			tr, err := distmat.NewMatrixByName(name, validMatrixConfig())
			if err != nil {
				t.Fatalf("NewMatrixByName(%q): %v", name, err)
			}
			info, ok := distmat.LookupMatrixProtocol(name)
			if !ok {
				t.Fatalf("LookupMatrixProtocol(%q) missing", name)
			}
			if tr.Name() != info.Display {
				t.Fatalf("built Name %q != registry Display %q", tr.Name(), info.Display)
			}
			exact := runMatrix(t, tr, rows, distmat.NewRoundRobin(3))
			if exact.Trace() <= 0 {
				t.Fatal("exact Gram empty")
			}
			if g := tr.Gram(); g.Dim() != 10 {
				t.Fatalf("Gram dim %d, want 10", g.Dim())
			}
		})
	}
}

// TestRegistryConstructsEveryHHProtocol is the heavy-hitters analogue.
func TestRegistryConstructsEveryHHProtocol(t *testing.T) {
	items := distmat.ZipfStream(distmat.DefaultZipfConfig(2000))
	for _, name := range distmat.HHProtocols() {
		t.Run(name, func(t *testing.T) {
			p, err := distmat.NewHHByName(name, validHHConfig())
			if err != nil {
				t.Fatalf("NewHHByName(%q): %v", name, err)
			}
			info, ok := distmat.LookupHHProtocol(name)
			if !ok {
				t.Fatalf("LookupHHProtocol(%q) missing", name)
			}
			if p.Name() != info.Display {
				t.Fatalf("built Name %q != registry Display %q", p.Name(), info.Display)
			}
			runHH(t, p, items, distmat.NewRoundRobin(3))
			if p.EstimateTotal() <= 0 {
				t.Fatalf("%s total estimate %v", p.Name(), p.EstimateTotal())
			}
		})
	}
}

// TestRegistryInfosComplete asserts the metadata table matches the name
// list and carries the fields the README/CLIs render.
func TestRegistryInfosComplete(t *testing.T) {
	matInfos := distmat.MatrixProtocolInfos()
	if len(matInfos) != len(distmat.MatrixProtocols()) {
		t.Fatalf("matrix infos %d != names %d", len(matInfos), len(distmat.MatrixProtocols()))
	}
	hhInfos := distmat.HHProtocolInfos()
	if len(hhInfos) != len(distmat.HHProtocols()) {
		t.Fatalf("hh infos %d != names %d", len(hhInfos), len(distmat.HHProtocols()))
	}
	for _, info := range append(matInfos, hhInfos...) {
		if info.Name == "" || info.Display == "" || info.Summary == "" || info.Communication == "" {
			t.Fatalf("incomplete info: %+v", info)
		}
	}
	if _, ok := distmat.LookupMatrixProtocol("nope"); ok {
		t.Fatal("LookupMatrixProtocol accepted an unregistered name")
	}
	if _, ok := distmat.LookupHHProtocol("nope"); ok {
		t.Fatal("LookupHHProtocol accepted an unregistered name")
	}
}

// TestRegistryAliases asserts aliases and case-insensitive lookup resolve
// to the same protocol as the canonical name.
func TestRegistryAliases(t *testing.T) {
	for _, alias := range []string{"P2", " p2 ", "p2Small", "p2smallspace", "P3wor"} {
		if _, err := distmat.NewMatrixByName(alias, validMatrixConfig()); err != nil {
			t.Fatalf("alias %q rejected: %v", alias, err)
		}
	}
	if _, err := distmat.NewHHByName("p4med", validHHConfig()); err != nil {
		t.Fatalf("alias p4med rejected: %v", err)
	}
}

// TestUnknownProtocolError asserts unknown names return ErrUnknownProtocol
// (and never panic).
func TestUnknownProtocolError(t *testing.T) {
	if _, err := distmat.NewMatrixByName("nope", validMatrixConfig()); !errors.Is(err, distmat.ErrUnknownProtocol) {
		t.Fatalf("matrix: got %v, want ErrUnknownProtocol", err)
	}
	if _, err := distmat.NewHHByName("nope", validHHConfig()); !errors.Is(err, distmat.ErrUnknownProtocol) {
		t.Fatalf("hh: got %v, want ErrUnknownProtocol", err)
	}
}

// TestInvalidConfigsReturnError is the core contract of the redesign:
// every invalid configuration surfaces as ErrInvalidConfig through every
// constructor — no panics.
func TestInvalidConfigsReturnError(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*distmat.Config)
	}{
		{"zero sites", func(c *distmat.Config) { c.Sites = 0 }},
		{"negative sites", func(c *distmat.Config) { c.Sites = -3 }},
		{"eps too large", func(c *distmat.Config) { c.Epsilon = 1.5 }},
		{"eps zero", func(c *distmat.Config) { c.Epsilon = 0 }},
		{"eps negative", func(c *distmat.Config) { c.Epsilon = -0.1 }},
	}
	matrixOnly := []struct {
		name string
		mut  func(*distmat.Config)
	}{
		{"zero dim", func(c *distmat.Config) { c.Dim = 0 }},
		{"negative dim", func(c *distmat.Config) { c.Dim = -1 }},
		{"negative rank", func(c *distmat.Config) { c.Rank = -2 }},
		{"window too small", func(c *distmat.Config) { c.Window = 1 }},
	}
	hhOnly := []struct {
		name string
		mut  func(*distmat.Config)
	}{
		{"zero copies", func(c *distmat.Config) { c.Copies = 0 }},
		{"negative copies", func(c *distmat.Config) { c.Copies = -1 }},
	}

	for _, name := range distmat.MatrixProtocols() {
		for _, tc := range append(cases, matrixOnly...) {
			cfg := validMatrixConfig()
			tc.mut(&cfg)
			if _, err := distmat.NewMatrixByName(name, cfg); !errors.Is(err, distmat.ErrInvalidConfig) {
				t.Errorf("matrix %s / %s: got %v, want ErrInvalidConfig", name, tc.name, err)
			}
		}
	}
	for _, name := range distmat.HHProtocols() {
		for _, tc := range append(cases, hhOnly...) {
			cfg := validHHConfig()
			tc.mut(&cfg)
			if _, err := distmat.NewHHByName(name, cfg); !errors.Is(err, distmat.ErrInvalidConfig) {
				t.Errorf("hh %s / %s: got %v, want ErrInvalidConfig", name, tc.name, err)
			}
		}
	}

	quantileCases := append(cases, struct {
		name string
		mut  func(*distmat.Config)
	}{"zero bits", func(c *distmat.Config) { c.Bits = 0 }})
	for _, tc := range quantileCases {
		cfg := distmat.DefaultConfig()
		cfg.Sites, cfg.Bits = 3, 10
		tc.mut(&cfg)
		_, err := distmat.NewQuantile(func(c *distmat.Config) { *c = cfg })
		if !errors.Is(err, distmat.ErrInvalidConfig) {
			t.Errorf("quantile %s: got %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

// TestSketchRowsPastIntRefused pins the refusal of an ε so small that a
// tracker's FD sketch size does not fit an int: p1 (ℓ = ⌈2/ε⌉+1), p2small
// (ℓ = ⌈4m/ε⌉, past an int already at ε = 1e-18 with m = 3) and the fd
// baseline (ℓ = ⌈1/ε⌉) return ErrInvalidConfig, through the registry and
// a session, where the conversion once wrapped to −2⁶³ and sketch.NewFD
// panicked. Protocols without an ε-sized sketch still build, and so does
// fd with its size set by Rank.
func TestSketchRowsPastIntRefused(t *testing.T) {
	for _, c := range []struct {
		proto string
		eps   float64
	}{{"p1", 1e-300}, {"p2small", 1e-300}, {"p2small", 1e-18}, {"fd", 1e-300}} {
		cfg := validMatrixConfig()
		cfg.Epsilon = c.eps
		if _, err := distmat.NewMatrixByName(c.proto, cfg); !errors.Is(err, distmat.ErrInvalidConfig) {
			t.Errorf("%s at ε = %g: got %v, want ErrInvalidConfig", c.proto, c.eps, err)
		}
		_, err := distmat.NewMatrixSession(c.proto, distmat.WithSites(cfg.Sites), distmat.WithEpsilon(c.eps), distmat.WithDim(cfg.Dim))
		if !errors.Is(err, distmat.ErrInvalidConfig) {
			t.Errorf("%s session at ε = %g: got %v, want ErrInvalidConfig", c.proto, c.eps, err)
		}
	}
	for _, proto := range []string{"p2", "p3", "svd"} {
		cfg := validMatrixConfig()
		cfg.Epsilon = 1e-300
		tr, err := distmat.NewMatrixByName(proto, cfg)
		if err != nil {
			t.Fatalf("%s at ε = 1e-300: %v", proto, err)
		}
		tr.ProcessRows(0, [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}})
	}
	cfg := validMatrixConfig()
	cfg.Epsilon, cfg.Rank = 1e-300, 4
	if _, err := distmat.NewMatrixByName("fd", cfg); err != nil {
		t.Fatalf("fd with Rank 4 at ε = 1e-300: %v", err)
	}
}

// TestOptionsMatchConfigFields asserts the functional options and the
// struct-literal path build identical configurations.
func TestOptionsMatchConfigFields(t *testing.T) {
	asg := distmat.NewRoundRobin(7)
	got := distmat.NewConfig(
		distmat.WithSites(7),
		distmat.WithEpsilon(0.25),
		distmat.WithDim(12),
		distmat.WithSeed(99),
		distmat.WithCopies(5),
		distmat.WithRank(8),
		distmat.WithBits(20),
		distmat.WithWindow(100),
		distmat.WithExactTracking(),
		distmat.WithAssigner(asg),
	)
	want := distmat.Config{Sites: 7, Epsilon: 0.25, Dim: 12, Seed: 99, Copies: 5,
		Rank: 8, Bits: 20, Window: 100, TrackExact: true, Assigner: asg}
	if got != want {
		t.Fatalf("NewConfig = %+v, want %+v", got, want)
	}
}
