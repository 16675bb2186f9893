// Package perfguard times the in-process speed guards that `make
// perf-guard` and `go test ./...` run. Only tests import it.
//
// A guard is a list of rows. A row names a reference body, a fast body and
// a floor: the fast body must run at least floor times as fast as the
// reference. A ceiling ("X costs at most c× Y") is the row with Y as the
// reference, X as the fast body and 1/c as the floor. Hold times every row
// by one rule, so a guard states only what it compares.
package perfguard

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"time"
)

// Body is one side of a Row. Run is what a lap times, called Row.Calls
// times in a row; Prep and Done, where set, run untimed just before and
// just after each lap (to build what Run consumes and to release it).
type Body struct {
	Name       string
	Run        func()
	Prep, Done func()
}

// Row is one comparison of a guard.
type Row struct {
	Name      string
	Ref, Fast Body
	// Floor is the least ratio of Ref's median lap to Fast's that passes.
	Floor float64
	// Calls is the number of Run calls a lap (0: one); the logged times
	// are per call.
	Calls int
	// Laps is the number of laps each side takes a reading (0: 21).
	Laps int
	// Readings is how many readings a ratio under Floor may take in all
	// before the row fails (0: one).
	Readings int
	// LogOnly logs the readings and never fails the row: for a ratio
	// that means nothing on this build, such as under the race detector.
	LogOnly bool
}

// Hold reads every row in turn. A reading times the row's two bodies in
// alternating laps, Ref first, so that a noisy spell of the host lands on
// both sides alike, and takes the ratio of Ref's median lap to Fast's. A
// reading under the floor is taken again, up to Readings in all; a row
// still under it then fails tb, once, naming the row. Each reading is
// logged as one line:
//
//	perfguard: <row>: <ref> <time> → <fast> <time>: <ratio>x (floor <floor>x, reading <i>/<n>)
//
// An unmeasurably fast Fast body (a median lap of 0) is a pass.
//
//distlint:unreachable-ok test helper: the speed guards of the matrix, core, sketch, hh, quantile, service and wire tests
func Hold(tb testing.TB, rows ...Row) {
	tb.Helper()
	for _, r := range rows {
		calls, laps, readings := max(r.Calls, 1), cmp.Or(r.Laps, 21), max(r.Readings, 1)
		ref, fast := make([]time.Duration, laps), make([]time.Duration, laps)
		var ratio float64
		for i := 1; i <= readings; i++ {
			for l := range laps {
				ref[l], fast[l] = r.Ref.lap(calls), r.Fast.lap(calls)
			}
			tr, tf := median(ref), median(fast)
			ratio = math.Inf(1)
			if tf > 0 {
				ratio = float64(tr) / float64(tf)
			}
			tb.Logf("perfguard: %s: %s %v → %s %v: %.2fx (floor %.3gx, reading %d/%d)",
				r.Name, r.Ref.Name, tr/time.Duration(calls), r.Fast.Name, tf/time.Duration(calls), ratio, r.Floor, i, readings)
			if ratio >= r.Floor {
				break
			}
		}
		if ratio < r.Floor && !r.LogOnly {
			tb.Errorf("perfguard: %s: %s → %s: %.2fx at reading %d/%d, under its floor %.3gx",
				r.Name, r.Ref.Name, r.Fast.Name, ratio, readings, readings, r.Floor)
		}
	}
}

// lap runs b once as a lap of calls calls and returns how long the calls
// took, Prep and Done left out.
func (b Body) lap(calls int) time.Duration {
	if b.Prep != nil {
		b.Prep()
	}
	start := time.Now()
	for range calls {
		b.Run()
	}
	d := time.Since(start)
	if b.Done != nil {
		b.Done()
	}
	return d
}

// median sorts laps and returns the middle one.
func median(laps []time.Duration) time.Duration {
	slices.Sort(laps)
	return laps[len(laps)/2]
}
