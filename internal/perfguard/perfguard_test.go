package perfguard

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder is a testing.TB that keeps what Hold logs and reports.
type recorder struct {
	testing.TB
	logs, errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Logf(format string, args ...any) {
	r.logs = append(r.logs, fmt.Sprintf(format, args...))
}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// sleeper returns a body that sleeps d a call and counts its laps.
func sleeper(name string, d time.Duration, laps *int) Body {
	return Body{Name: name, Run: func() { time.Sleep(d) }, Prep: func() { *laps++ }}
}

// TestHold drives Hold with bodies whose ratio is ≈ 100× or ≈ 0.01×
// against a floor of 2: a row over its floor stops after one reading; a
// row under it takes exactly its readings and fails once, naming the row;
// a one-reading row is never read again; a LogOnly row never fails.
func TestHold(t *testing.T) {
	const slow, quick, laps = 5 * time.Millisecond, 50 * time.Microsecond, 3
	for _, c := range []struct {
		name                   string
		ref, fast              time.Duration
		readings, wantReadings int
		logOnly, wantFail      bool
	}{
		{"over", slow, quick, 3, 1, false, false},
		{"under", quick, slow, 3, 3, false, true},
		{"under once", quick, slow, 1, 1, false, true},
		{"under, logged", quick, slow, 2, 2, true, false},
	} {
		rec := &recorder{TB: t}
		var refLaps, fastLaps int
		Hold(rec, Row{Name: c.name, Ref: sleeper("ref", c.ref, &refLaps), Fast: sleeper("fast", c.fast, &fastLaps),
			Floor: 2, Laps: laps, Readings: c.readings, LogOnly: c.logOnly})
		if refLaps != c.wantReadings*laps || fastLaps != refLaps {
			t.Errorf("%s: %d ref and %d fast laps, want %d each", c.name, refLaps, fastLaps, c.wantReadings*laps)
		}
		if len(rec.logs) != c.wantReadings {
			t.Errorf("%s: %d readings logged, want %d: %q", c.name, len(rec.logs), c.wantReadings, rec.logs)
		}
		for i, line := range rec.logs {
			want := fmt.Sprintf("(floor 2x, reading %d/%d)", i+1, c.readings)
			if !strings.HasPrefix(line, "perfguard: "+c.name+": ref ") || !strings.HasSuffix(line, want) {
				t.Errorf("%s: reading %d logged %q, want perfguard: %s: ref … %s", c.name, i+1, line, c.name, want)
			}
		}
		switch {
		case !c.wantFail && len(rec.errs) != 0:
			t.Errorf("%s: failed: %q", c.name, rec.errs)
		case c.wantFail && (len(rec.errs) != 1 || !strings.Contains(rec.errs[0], c.name+":")):
			t.Errorf("%s: failures %q, want one naming the row", c.name, rec.errs)
		}
	}
}

// TestHoldCallsPrepAndDoneOutsideTheLap: a lap calls Run Calls times
// between one Prep and one Done, and times none of Prep and Done.
func TestHoldCallsPrepAndDoneOutsideTheLap(t *testing.T) {
	var events []string
	side := func(name string) Body {
		return Body{Name: name,
			Prep: func() { events = append(events, name+" prep"); time.Sleep(20 * time.Millisecond) },
			Run:  func() { events = append(events, name+" run") },
			Done: func() { events = append(events, name+" done"); time.Sleep(20 * time.Millisecond) }}
	}
	rec := &recorder{TB: t}
	Hold(rec, Row{Name: "order", Ref: side("a"), Fast: side("b"), Calls: 2, Laps: 1})
	want := "a prep, a run, a run, a done, b prep, b run, b run, b done"
	if got := strings.Join(events, ", "); got != want {
		t.Errorf("events %s, want %s", got, want)
	}
	if len(rec.logs) != 1 || strings.Contains(rec.logs[0], "ms") {
		t.Errorf("logged %q: want one reading with no Prep or Done sleep in its times", rec.logs)
	}
}

// TestHoldTakesTheMedian: a reference that is quick in one lap of three
// still reads as slow, where a minimum would read it as quick.
func TestHoldTakesTheMedian(t *testing.T) {
	lap := 0
	ref := Body{Name: "ref", Prep: func() { lap++ }, Run: func() {
		if lap > 1 {
			time.Sleep(10 * time.Millisecond)
		}
	}}
	rec := &recorder{TB: t}
	Hold(rec, Row{Name: "median", Ref: ref, Fast: sleeper("fast", 500*time.Microsecond, new(int)), Floor: 2, Laps: 3})
	if len(rec.errs) != 0 {
		t.Errorf("failed: %q", rec.errs)
	}
}
