//go:build race

package wire

// raceEnabled tells TestWireStreamGuard that the race detector is slowing
// the two ends of its stream unevenly.
const raceEnabled = true
