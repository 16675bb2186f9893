//go:build amd64 && !purego

package cpu

// AVX2 is whether the AVX2 kernel bodies can run: the CPU has AVX2, BMI1
// and BMI2 (the bodies use TZCNT, BLSR and BZHI beside the vector
// instructions) and the OS saves the YMM state. It is read once, at init;
// the kernels' packages copy it into their own switch, which their tests
// flip to run both bodies.
var AVX2 = hasAVX2()

//distlint:spec none a CPUID/XGETBV probe: it picks between bodies and has no portable twin
func hasAVX2() bool
