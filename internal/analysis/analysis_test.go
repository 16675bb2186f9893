package analysis_test

import (
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

// TestSuiteScoping pins the driver's package scoping: directive-driven
// analyzers and asmspec run everywhere, errcontract only on the facade and service,
// workerlifecycle only on the worker-spawning packages (core, hh,
// quantile, service, wire).
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
	}
	if len(analysis.All()) != 6 {
		t.Errorf("All() = %d analyzers, want 6", len(analysis.All()))
	}
}
