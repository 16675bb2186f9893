package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/lintkit"
)

func TestAsmSpec(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/asmspec", analysis.AsmSpec)
}

func TestHotPathAlloc(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/hotpathalloc", analysis.HotPathAlloc)
}

func TestMutexGuard(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/mutexguard", analysis.MutexGuard)
}

func TestSnapshotPurity(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/snapshotpurity", analysis.SnapshotPurity)
}

func TestErrContract(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/errcontract", analysis.ErrContract)
}

func TestWorkerLifecycle(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/workerlifecycle", analysis.WorkerLifecycle)
}

func TestUnreachable(t *testing.T) {
	lintkit.RunFixture(t, "testdata/src/unreachable", analysis.Unreachable)
}

// TestSuiteScoping pins the driver's package scoping: directive-driven
// analyzers and asmspec run everywhere, errcontract only on the facade and service,
// workerlifecycle only on the worker-spawning packages (core, hh,
// quantile, service, wire), unreachable only under internal/.
func TestSuiteScoping(t *testing.T) {
	names := func(as []*lintkit.Analyzer) map[string]bool {
		m := map[string]bool{}
		for _, a := range as {
			m[a.Name] = true
		}
		return m
	}
	for _, tc := range []struct {
		pkg         string
		errcontract bool
		lifecycle   bool
	}{
		{"repro", true, false},
		{"repro/internal/service", true, true},
		{"repro/internal/core", false, true},
		{"repro/internal/hh", false, true},
		{"repro/internal/quantile", false, true},
		{"repro/internal/wire", false, true},
		{"repro/internal/matrix", false, false},
		{"repro/internal/sketch", false, false},
	} {
		got := names(analysis.Suite(tc.pkg))
		for _, always := range []string{"asmspec", "hotpathalloc", "mutexguard", "snapshotpurity"} {
			if !got[always] {
				t.Errorf("Suite(%q): missing %s", tc.pkg, always)
			}
		}
		if got["errcontract"] != tc.errcontract {
			t.Errorf("Suite(%q): errcontract = %v, want %v", tc.pkg, got["errcontract"], tc.errcontract)
		}
		if got["workerlifecycle"] != tc.lifecycle {
			t.Errorf("Suite(%q): workerlifecycle = %v, want %v", tc.pkg, got["workerlifecycle"], tc.lifecycle)
		}
		if want := strings.HasPrefix(tc.pkg, "repro/internal/"); got["unreachable"] != want {
			t.Errorf("Suite(%q): unreachable = %v, want %v", tc.pkg, got["unreachable"], want)
		}
	}
	if len(analysis.All()) != 7 {
		t.Errorf("All() = %d analyzers, want 7", len(analysis.All()))
	}
}

// TestUnreachableCountsBench runs Unreachable over the real module the way
// the driver does: gen.ExactFrequencies, whose only non-test caller is the
// benchmark module's check.go, is reachable with bench/ in the program and
// flagged without it.
func TestUnreachableCountsBench(t *testing.T) {
	program, err := analysis.LoadProgram("../..")
	if err != nil {
		t.Fatal(err)
	}
	var gen []*lintkit.Package
	var module []*lintkit.Package
	for _, pkg := range program {
		if pkg.ImportPath == "repro/internal/gen" {
			gen = append(gen, pkg)
		}
		if !strings.HasPrefix(pkg.ImportPath, "repro/bench") {
			module = append(module, pkg)
		}
	}
	if len(gen) != 1 || len(module) == len(program) {
		t.Fatalf("program of %d packages has %d gen packages and no bench package", len(program), len(gen))
	}
	unreachable := func(string) []*lintkit.Analyzer { return []*lintkit.Analyzer{analysis.Unreachable} }
	findings := func(program []*lintkit.Package) []string {
		diags, err := lintkit.RunSuite(gen, program, unreachable)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			out = append(out, d.Message)
		}
		return out
	}
	if got := findings(program); len(got) != 0 {
		t.Errorf("with bench/ in the program, gen has findings: %q", got)
	}
	got := findings(module)
	if len(got) != 1 || !strings.HasPrefix(got[0], "ExactFrequencies ") {
		t.Errorf("without bench/, findings are %q, want only ExactFrequencies", got)
	}
}
