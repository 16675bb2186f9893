//go:build !race

package matrix

const raceEnabled = false
