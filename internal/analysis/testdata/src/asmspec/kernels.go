package asmspec

// addGo is the portable body the assembly declarations below name.
func addGo(x, y []float64) {
	for i := range y {
		y[i] += x[i]
	}
}

// addAVX2 names its spec and the test comparing the two.
//
//distlint:spec addGo TestAddBitIdentical
//go:noescape
func addAVX2(x, y *float64, n int)

// addFuzzed names a fuzz target instead.
//
//distlint:spec addGo FuzzAddEquivalence
func addFuzzed(x, y *float64, n int)

// cpuProbe has no portable twin and says why.
//
//distlint:spec none a CPU feature probe: nothing to compare it with
func cpuProbe() bool

func bare(x *float64) // want `bare has no body and no //distlint:spec`

//distlint:spec none
func probeNoReason() bool // want `spec none needs a reason`

//distlint:spec addGo
func specOnly(x *float64) // want `wants <portable func> <Test\|Fuzz name>`

//distlint:spec subGo TestAddBitIdentical
func missingSpec(x *float64) // want `spec function subGo is not declared`

//distlint:spec bare TestAddBitIdentical
func bodilessSpec(x *float64) // want `spec function bare has no body`

//distlint:spec addGo BenchmarkAdd
func benchmarkNamed(x *float64) // want `BenchmarkAdd is not a Test or Fuzz function`

//distlint:spec addGo TestSubBitIdentical
func missingTest(x *float64) // want `no _test.go file .* declares TestSubBitIdentical`

// withBody has a body, so it needs no directive.
func withBody() {}

// scan has a body and names the slower one it replaced, kept in a test file.
//
//distlint:spec scanSpec FuzzScan
func scan(d []byte) int { return len(d) }

type walker struct{}

// walk names a method of the test file's oracle type.
//
//distlint:spec oracle.walk TestWalkBitIdentical
func (w *walker) walk() {}

//distlint:spec walker.walk TestWalkBitIdentical
func walkAgain() {}

//distlint:spec scanGone FuzzScan
func scanMissingSpec(d []byte) int { return len(d) } // want `spec function scanGone is not declared in package asmspec or its tests`

//distlint:spec scanSpec FuzzScanGone
func scanMissingTest(d []byte) int { return len(d) } // want `no _test.go file .* declares FuzzScanGone`
