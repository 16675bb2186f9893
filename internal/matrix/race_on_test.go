//go:build race

package matrix

// raceEnabled tells TestEigAboveGuard to log, not enforce, its floor: the
// detector instruments EigAbove's pure-Go loops but not the assembly
// kernels EigSymWork leans on, so the two no longer compare (≈ 1.4× where
// the plain build reads ≈ 2.2×).
const raceEnabled = true
