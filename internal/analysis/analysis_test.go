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
// quantile, service, wire), unreachable on the facade and under internal/.
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
		{"repro/cmd/distserve", false, false},
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
		if want := tc.pkg == "repro" || strings.HasPrefix(tc.pkg, "repro/internal/"); got["unreachable"] != want {
			t.Errorf("Suite(%q): unreachable = %v, want %v", tc.pkg, got["unreachable"], want)
		}
	}
	if len(analysis.All()) != 7 {
		t.Errorf("All() = %d analyzers, want 7", len(analysis.All()))
	}
}

// TestUnreachableCountsBench runs Unreachable over the real module the way
// the driver does: gen.ExactFrequencies and the method wal.Log.ReplayFrom,
// whose only non-test callers are in the benchmark module, are reachable
// with bench/ in the program and flagged without it.
func TestUnreachableCountsBench(t *testing.T) {
	program, err := analysis.LoadProgram("../..")
	if err != nil {
		t.Fatal(err)
	}
	var targets []*lintkit.Package
	var module []*lintkit.Package
	for _, pkg := range program {
		switch pkg.ImportPath {
		case "repro/internal/gen", "repro/internal/wal":
			targets = append(targets, pkg)
		}
		if !strings.HasPrefix(pkg.ImportPath, "repro/bench") {
			module = append(module, pkg)
		}
	}
	if len(targets) != 2 || len(module) == len(program) {
		t.Fatalf("program of %d packages has %d of gen and wal and no bench package", len(program), len(targets))
	}
	unreachable := func(string) []*lintkit.Analyzer { return []*lintkit.Analyzer{analysis.Unreachable} }
	findings := func(program []*lintkit.Package) []string {
		diags, err := lintkit.RunSuite(targets, program, unreachable)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			out = append(out, strings.Fields(d.Message)[0])
		}
		return out
	}
	if got := findings(program); len(got) != 0 {
		t.Errorf("with bench/ in the program, gen and wal have findings: %q", got)
	}
	got := strings.Join(findings(module), " ")
	if want := "ExactFrequencies Log.ReplayFrom"; got != want {
		t.Errorf("without bench/, findings are %q, want %q", got, want)
	}
}

// TestUnreachableCountsExamples runs Unreachable over the real facade the
// way the driver does: NewMatrix and WrapMatrixSession, whose only callers
// are ExampleNewMatrix and the tests, are reachable with the external
// test package's examples in the program and flagged (with every other
// name only an Example reaches) without them.
func TestUnreachableCountsExamples(t *testing.T) {
	program, err := analysis.LoadProgram("../..")
	if err != nil {
		t.Fatal(err)
	}
	var facade []*lintkit.Package
	var withoutExamples []*lintkit.Package
	for _, pkg := range program {
		if pkg.ImportPath == "repro" {
			facade = append(facade, pkg)
		}
		if pkg.ImportPath != "repro_test" {
			withoutExamples = append(withoutExamples, pkg)
		}
	}
	if len(facade) != 1 || len(withoutExamples) != len(program)-1 {
		t.Fatalf("program of %d packages has %d facade packages and %d example packages", len(program), len(facade), len(program)-len(withoutExamples))
	}
	unreachable := func(string) []*lintkit.Analyzer { return []*lintkit.Analyzer{analysis.Unreachable} }
	findings := func(program []*lintkit.Package) string {
		diags, err := lintkit.RunSuite(facade, program, unreachable)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, d := range diags {
			out = append(out, strings.Fields(d.Message)[0])
		}
		return strings.Join(out, " ")
	}
	if got := findings(program); got != "" {
		t.Errorf("with the examples in the program, the facade has findings: %s", got)
	}
	got := " " + findings(withoutExamples) + " "
	for _, want := range []string{"NewMatrix", "WrapMatrixSession"} {
		if !strings.Contains(got, " "+want+" ") {
			t.Errorf("without the examples, findings are %q, want %s among them", got, want)
		}
	}
}
