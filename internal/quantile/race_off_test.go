//go:build !race

package quantile

const raceEnabled = false
