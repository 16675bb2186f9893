//go:build race

package quantile

// raceEnabled tells TestQDigestGuard to skip: the race detector slows the
// map-backed oracle and the node array unevenly (≈ 1.7× where the plain
// build reads ≈ 5×).
const raceEnabled = true
