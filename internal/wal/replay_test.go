package wal

import (
	"errors"
	"testing"

	"repro/internal/vfs"
)

// replayFrom collects the suffix ReplayFrom delivers.
func replayFrom(t *testing.T, l *Log, after uint64) []Record {
	t.Helper()
	var got []Record
	if err := l.ReplayFrom(after, func(rec *Record) error {
		got = append(got, ownedRecord(rec))
		return nil
	}); err != nil {
		t.Fatalf("ReplayFrom(%d): %v", after, err)
	}
	return got
}

func TestReplayFromSuffixes(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the log spans several closed segments plus an
	// active one, and per-record WaitDurable so each record flushes.
	l, _ := collectOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	want := testRecords(40)
	for i := range want {
		lsn, err := l.Append(&want[i])
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want[i].LSN = lsn
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("WaitDurable %d: %v", i, err)
		}
	}
	if l.Stats().Segments < 3 {
		t.Fatalf("test wants several segments, got %d", l.Stats().Segments)
	}
	// Every cursor position yields exactly the records beyond it.
	last := want[len(want)-1].LSN
	for after := uint64(0); after <= last; after++ {
		got := replayFrom(t, l, after)
		if !equalRecords(got, want[after:]) {
			t.Fatalf("ReplayFrom(%d): %d records, want %d", after, len(got), len(want)-int(after))
		}
	}
	if got := replayFrom(t, l, last+10); len(got) != 0 {
		t.Fatalf("ReplayFrom past the end replayed %d records", len(got))
	}
}

func TestReplayFromAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	want := testRecords(40)
	for i := range want {
		lsn, err := l.Append(&want[i])
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want[i].LSN = lsn
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("WaitDurable %d: %v", i, err)
		}
	}
	// Compact away segments fully covered below the midpoint; cursors at
	// or past the midpoint must still see their exact suffix.
	mid := want[len(want)/2].LSN
	if _, err := l.Compact(mid); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	for after := mid; after <= want[len(want)-1].LSN; after++ {
		got := replayFrom(t, l, after)
		if !equalRecords(got, want[after:]) {
			t.Fatalf("post-compaction ReplayFrom(%d): %d records, want %d",
				after, len(got), len(want)-int(after))
		}
	}
}

func TestReplayFromIncludesStagedTail(t *testing.T) {
	dir := t.TempDir()
	// With no WaitDurable caller to lead a flush, appends stay staged in
	// memory; ReplayFrom must still deliver them — they are applied state
	// awaiting group commit.
	l, _ := collectOpen(t, Options{Dir: dir})
	defer l.Close()
	want := testRecords(6)
	for i := range want {
		lsn, err := l.Append(&want[i])
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		want[i].LSN = lsn
	}
	got := replayFrom(t, l, 0)
	if !equalRecords(got, want) {
		t.Fatalf("staged replay: %d records, want %d", len(got), len(want))
	}
	if got := replayFrom(t, l, 4); !equalRecords(got, want[4:]) {
		t.Fatalf("staged suffix replay: %d records, want %d", len(got), len(want)-4)
	}
}

func TestReplayFromSkipsStagedTailWhenDamaged(t *testing.T) {
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.OS())
	l, _ := collectOpen(t, Options{Dir: dir, FS: fault})
	defer l.Close()
	durable := appendAll(t, l, testRecords(5))

	boom := errors.New("injected fsync failure")
	fault.FailOp(vfs.OpSync, boom)
	rec := Record{Kind: KindDelete, Tracker: "x"}
	lsn, err := l.Append(&rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WaitDurable(lsn); err == nil {
		t.Fatal("WaitDurable succeeded with fsync failing")
	}
	// Damaged: the unacknowledged staged record is Rearm debris and must
	// not replay, but the durable prefix must.
	got := replayFrom(t, l, 0)
	if !equalRecords(got, durable) {
		t.Fatalf("damaged replay: %d records, want %d durable", len(got), len(durable))
	}
}

func TestReplayFromCallbackErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir})
	defer l.Close()
	appendAll(t, l, testRecords(5))
	boom := errors.New("apply rejected")
	err := l.ReplayFrom(0, func(rec *Record) error {
		if rec.LSN == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ReplayFrom = %v, want wrapped %v", err, boom)
	}
}

func TestReplayFromClosed(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir})
	appendAll(t, l, testRecords(3))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := l.ReplayFrom(0, func(*Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReplayFrom on closed log = %v, want ErrClosed", err)
	}
}
