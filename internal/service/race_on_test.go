//go:build race

package service

// raceEnabled tells TestIngestJSONGuard to log, not enforce, its floor
// against the previous scan: the detector instruments both scans' byte
// reads alike and drowns the difference (≈ 1.03× where the plain build
// reads ≈ 1.2×).
const raceEnabled = true
