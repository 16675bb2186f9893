package analysis

import (
	"strings"

	"repro/internal/analysis/lintkit"
)

// All returns every distlint analyzer, unscoped. The test harness runs
// these directly against fixtures; the driver uses Suite to respect each
// analyzer's package scope.
func All() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		AsmSpec,
		ErrContract,
		HotPathAlloc,
		MutexGuard,
		SnapshotPurity,
		Unreachable,
		WorkerLifecycle,
	}
}

// Suite returns the analyzers that apply to the package with the given
// import path. Directive-driven analyzers (hotpath, guarded-by, snapshot
// aliasing) run everywhere — they only fire where annotations exist — and so
// does AsmSpec, which only fires on functions declared without a body.
// ErrContract is scoped to the public facade and the service layer, whose
// error-handling conventions it encodes; WorkerLifecycle is scoped to the
// packages that spawn long-lived worker goroutines (matrix and item ingest
// shards, the service layer's checkpoint loop, the wire transport's
// connection managers and listeners, and the write-ahead log's re-arm
// loop). Unreachable is scoped to the packages under internal/, whose
// exported functions and methods exist only for the module's own programs,
// and to the facade, whose exported API must be reached by a program or an
// Example.
func Suite(pkgPath string) []*lintkit.Analyzer {
	suite := []*lintkit.Analyzer{AsmSpec, HotPathAlloc, MutexGuard, SnapshotPurity}
	if pkgPath == "repro" || strings.HasPrefix(pkgPath, "repro/internal/") {
		suite = append(suite, Unreachable)
	}
	switch pkgPath {
	case "repro", "repro/internal/service":
		suite = append(suite, ErrContract)
	}
	switch pkgPath {
	case "repro/internal/core", "repro/internal/hh", "repro/internal/quantile",
		"repro/internal/service", "repro/internal/wire", "repro/internal/wal":
		suite = append(suite, WorkerLifecycle)
	}
	return suite
}
