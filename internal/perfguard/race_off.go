//go:build !race

package perfguard

// Race is whether the race detector is on (see race_on.go).
const Race = false
