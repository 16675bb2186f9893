package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// ownedRecord deep-copies a replayed record out of the reader's scratch.
func ownedRecord(rec *Record) Record {
	cp := *rec
	if rec.Spec != nil {
		cp.Spec = append([]byte(nil), rec.Spec...)
	}
	if rec.Rows != nil {
		cp.Rows = make([][]float64, len(rec.Rows))
		for i, row := range rec.Rows {
			cp.Rows[i] = append([]float64(nil), row...)
		}
	}
	if rec.Items != nil {
		cp.Items = append([]Item(nil), rec.Items...)
	}
	return cp
}

// equalRecords compares record slices, treating nil and empty alike.
func equalRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func collectOpen(t *testing.T, opts Options) (*Log, []Record) {
	t.Helper()
	var got []Record
	l, err := Open(opts, func(rec *Record) error {
		got = append(got, ownedRecord(rec))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got
}

func testRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := range n {
		switch i % 4 {
		case 0:
			recs = append(recs, Record{
				Kind: KindRows, Tracker: fmt.Sprintf("t%d", i%3), Site: i % 5, Dim: 3,
				Rows: [][]float64{{float64(i), 1.5, -2.25}, {0, math.Pi, float64(i) * 0.5}},
			})
		case 1:
			recs = append(recs, Record{
				Kind: KindItems, Tracker: "hh", Site: AssignSite,
				Items: []Item{{Elem: uint64(i), Weight: 1}, {Elem: 7, Weight: 0.25}},
			})
		case 2:
			recs = append(recs, Record{Kind: KindCreate, Tracker: fmt.Sprintf("t%d", i%3), Spec: []byte(`{"kind":"fd"}`)})
		default:
			recs = append(recs, Record{Kind: KindDelete, Tracker: "hh"})
		}
	}
	return recs
}

// appendAll appends recs, waits for durability, and returns the records
// with their assigned LSNs.
func appendAll(t *testing.T, l *Log, recs []Record) []Record {
	t.Helper()
	out := make([]Record, len(recs))
	var last uint64
	for i := range recs {
		rec := recs[i]
		lsn, err := l.Append(&rec)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		rec.LSN = lsn
		out[i] = rec
		last = lsn
	}
	if err := l.WaitDurable(last); err != nil {
		t.Fatalf("WaitDurable(%d): %v", last, err)
	}
	return out
}

func TestRecordRoundtrip(t *testing.T) {
	recs := testRecords(12)
	recs = append(recs,
		Record{Kind: KindItems, Tracker: "empty"},         // zero items
		Record{Kind: KindRows, Tracker: "norows", Dim: 2}, // zero rows
		Record{Kind: KindCreate, Tracker: "nospec"},       // empty spec
		Record{Kind: KindRows, Tracker: "assign", Site: AssignSite, Dim: 1, Rows: [][]float64{{math.Inf(1)}}},
	)
	var buf []byte
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
		var err error
		buf, err = appendRecord(buf, &recs[i])
		if err != nil {
			t.Fatalf("appendRecord %d: %v", i, err)
		}
	}
	rd := recordReader{fr: frame.NewReader(format, bytes.NewReader(buf))}
	for i := range recs {
		rec, err := rd.next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		got := ownedRecord(rec)
		want := recs[i]
		// Canonicalise nil vs empty for the comparison.
		if len(want.Rows) == 0 {
			want.Rows, got.Rows = nil, nil
		}
		if len(want.Items) == 0 {
			want.Items, got.Items = nil, nil
		}
		if len(want.Spec) == 0 {
			want.Spec, got.Spec = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if off := rd.fr.Offset(); off != int64(len(buf)) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
	if _, err := rd.next(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}

func TestRecordRejectsMalformed(t *testing.T) {
	cases := []Record{
		{Kind: KindInvalid, Tracker: "x"},
		{Kind: KindRows, Tracker: "x", Dim: 0, Rows: [][]float64{{1}}},
		{Kind: KindRows, Tracker: "x", Dim: 2, Rows: [][]float64{{1}}}, // row/dim mismatch
		{Kind: KindRows, Tracker: "x", Dim: 1, Site: -7},
	}
	for i, rec := range cases {
		if _, err := appendRecord(nil, &rec); err == nil {
			t.Errorf("case %d: expected encode error", i)
		}
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, got := collectOpen(t, Options{Dir: dir})
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	want := appendAll(t, l, testRecords(25))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, got := collectOpen(t, Options{Dir: dir})
	defer l2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %d records %+v\nwant %d records %+v", len(got), got, len(want), want)
	}
	for i, rec := range got {
		if rec.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, rec.LSN)
		}
	}
	// The reopened log continues the LSN sequence.
	more := Record{Kind: KindDelete, Tracker: "x"}
	lsn, err := l2.Append(&more)
	if err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if wantLSN := want[len(want)-1].LSN + 1; lsn != wantLSN {
		t.Fatalf("post-reopen LSN %d, want %d", lsn, wantLSN)
	}
	if err := l2.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir, SegmentBytes: 256})
	// Flush per record so the stream spreads across several segments
	// (one group commit would land everything in the first).
	want := testRecords(60)
	for i := range want {
		lsn, err := l.Append(&want[i])
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("WaitDurable %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("expected rotation with 256-byte segments: %+v", st)
	}

	// Nothing covered: nothing compacts.
	if n, err := l.Compact(0); err != nil || n != 0 {
		t.Fatalf("Compact(0) = %d, %v", n, err)
	}
	// Cover half the log: the fully-covered closed segments go.
	mid := want[len(want)/2].LSN
	removedMid, err := l.Compact(mid)
	if err != nil {
		t.Fatalf("Compact(%d): %v", mid, err)
	}
	// Cover everything: every closed segment goes, the active one stays.
	lastLSN := want[len(want)-1].LSN
	removedAll, err := l.Compact(lastLSN)
	if err != nil {
		t.Fatalf("Compact(all): %v", err)
	}
	if removedMid+removedAll != st.Segments-1 {
		t.Fatalf("compacted %d+%d of %d segments", removedMid, removedAll, st.Segments)
	}
	if got := l.Stats().Segments; got != 1 {
		t.Fatalf("%d segments after full compaction", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: only the tail segment's records replay, and appends resume.
	l2, got := collectOpen(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	if len(got) >= len(want) {
		t.Fatalf("replayed %d of %d records after compaction", len(got), len(want))
	}
	if !equalRecords(got, want[len(want)-len(got):]) {
		t.Fatalf("post-compaction replay is not a suffix of the original log")
	}
	rec := Record{Kind: KindDelete, Tracker: "x"}
	if lsn, err := l2.Append(&rec); err != nil || lsn != lastLSN+1 {
		t.Fatalf("Append after compaction = %d, %v; want %d", lsn, err, lastLSN+1)
	}
}

// recordBounds is every record boundary of a segment image, 0 and its
// length included, so a cut maps to its surviving prefix length.
func recordBounds(t *testing.T, seg []byte) []int {
	t.Helper()
	bounds := []int{0}
	rd := recordReader{fr: frame.NewReader(format, bytes.NewReader(seg))}
	for bounds[len(bounds)-1] < len(seg) {
		if _, err := rd.next(); err != nil {
			t.Fatalf("segment self-scan: %v", err)
		}
		bounds = append(bounds, int(rd.fr.Offset()))
	}
	return bounds
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir})
	want := appendAll(t, l, testRecords(8))
	seg := l.segPath
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, so a cut maps to its surviving prefix length.
	bounds := recordBounds(t, whole)

	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(seg, whole[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		l2, got := collectOpen(t, Options{Dir: dir})
		keep := 0
		for keep+1 < len(bounds) && bounds[keep+1] <= cut {
			keep++
		}
		if !equalRecords(got, want[:keep]) {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), keep)
		}
		if cut != bounds[keep] {
			if st := l2.Stats(); st.TornTruncations != 1 {
				t.Fatalf("cut %d: %d torn truncations", cut, st.TornTruncations)
			}
		}
		// The truncated log accepts appends at the right LSN.
		rec := Record{Kind: KindDelete, Tracker: "x"}
		if lsn, err := l2.Append(&rec); err != nil || lsn != uint64(keep+1) {
			t.Fatalf("cut %d: Append = %d, %v; want LSN %d", cut, lsn, err, keep+1)
		}
		if err := l2.WaitDurable(uint64(keep + 1)); err != nil {
			t.Fatalf("cut %d: WaitDurable: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
	}
}

func TestBitFlipTruncatesTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir})
	want := appendAll(t, l, testRecords(6))
	seg := l.segPath
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the 4th record: records 1–3 survive, the rest
	// are cut.
	bounds := recordBounds(t, whole)
	mut := append([]byte(nil), whole...)
	mut[bounds[3]+frame.HeaderSize] ^= 0x10
	if err := os.WriteFile(seg, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	l2, got := collectOpen(t, Options{Dir: dir})
	defer l2.Close()
	if !reflect.DeepEqual(got, want[:3]) {
		t.Fatalf("replayed %d records after bit flip, want 3", len(got))
	}
	if st := l2.Stats(); st.TornTruncations != 1 {
		t.Fatalf("torn truncations = %d", st.TornTruncations)
	}
}

func TestEarlySegmentCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir, SegmentBytes: 256})
	appendAll(t, l, testRecords(60))
	if len(l.segments) == 0 {
		t.Fatal("test needs at least one closed segment")
	}
	first := l.segments[0].path
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(first, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir, SegmentBytes: 256}, func(*Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range per {
				rec := Record{Kind: KindItems, Tracker: "hh",
					Items: []Item{{Elem: uint64(w*per + i), Weight: 1}}}
				lsn, err := l.Append(&rec)
				if err == nil {
					err = l.WaitDurable(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent append: %v", err)
	}
	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Flushes >= st.Appends {
		t.Fatalf("no group commit: %d flushes for %d appends", st.Flushes, st.Appends)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, got := collectOpen(t, Options{Dir: dir})
	defer l2.Close()
	if len(got) != workers*per {
		t.Fatalf("replayed %d of %d records", len(got), workers*per)
	}
}

func TestDamageAndRearm(t *testing.T) {
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.OS())
	l, _ := collectOpen(t, Options{Dir: dir, FS: fault})
	durable := appendAll(t, l, testRecords(5))

	boom := errors.New("injected fsync failure")
	fault.FailOp(vfs.OpSync, boom)
	rec := Record{Kind: KindDelete, Tracker: "x"}
	lsn, err := l.Append(&rec)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable under failure = %v, want %v", err, boom)
	}
	if l.Damaged() == nil {
		t.Fatal("log not damaged after failed flush")
	}
	if _, err := l.Append(&Record{Kind: KindDelete, Tracker: "y"}); !errors.Is(err, boom) {
		t.Fatalf("Append on damaged log = %v", err)
	}
	// Disk still dead: Rearm fails, log stays damaged.
	if err := l.Rearm(); err == nil {
		t.Fatal("Rearm succeeded with fsync still failing")
	}

	fault.ClearOp(vfs.OpSync)
	if err := l.Rearm(); err != nil {
		t.Fatalf("Rearm after heal: %v", err)
	}
	if l.Damaged() != nil {
		t.Fatalf("still damaged after Rearm: %v", l.Damaged())
	}
	post := Record{Kind: KindItems, Tracker: "hh", Items: []Item{{Elem: 1, Weight: 2}}}
	postLSN, err := l.Append(&post)
	if err != nil {
		t.Fatalf("Append after Rearm: %v", err)
	}
	if postLSN <= lsn {
		t.Fatalf("post-rearm LSN %d not beyond damaged LSN %d", postLSN, lsn)
	}
	if err := l.WaitDurable(postLSN); err != nil {
		t.Fatalf("WaitDurable after Rearm: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The replayed log is exactly: the pre-damage durable records plus the
	// post-rearm record. The record staged behind the failed flush is gone.
	l2, got := collectOpen(t, Options{Dir: dir})
	defer l2.Close()
	if len(got) != len(durable)+1 {
		t.Fatalf("replayed %d records, want %d", len(got), len(durable)+1)
	}
	if got[len(got)-1].LSN != postLSN {
		t.Fatalf("last replayed LSN %d, want %d", got[len(got)-1].LSN, postLSN)
	}
}

// damage appends one record behind a failing fsync and returns the
// injected error, leaving the log damaged and its re-arm loop running.
func damage(t *testing.T, l *Log, fault *vfs.Fault) error {
	t.Helper()
	boom := errors.New("injected fsync failure")
	fault.FailOp(vfs.OpSync, boom)
	lsn, err := l.Append(&Record{Kind: KindDelete, Tracker: "x"})
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable under failure = %v, want %v", err, boom)
	}
	return boom
}

// TestDamageRearmsItself: once the disk heals, a damaged log re-arms
// from its own loop, with no Rearm call from outside; the failed
// attempts before that count no second degradation.
func TestDamageRearmsItself(t *testing.T) {
	fault := vfs.NewFault(vfs.OS())
	l, _ := collectOpen(t, Options{Dir: t.TempDir(), FS: fault, RearmDelay: time.Millisecond})
	defer l.Close()
	appendAll(t, l, testRecords(3))
	damage(t, l, fault)
	time.Sleep(20 * time.Millisecond) // a few failed attempts
	if l.Damaged() == nil {
		t.Fatal("re-armed while fsync still fails")
	}

	fault.ClearOp(vfs.OpSync)
	deadline := time.Now().Add(10 * time.Second)
	for l.Damaged() != nil {
		if time.Now().After(deadline) {
			t.Fatal("log did not re-arm after the disk healed")
		}
		time.Sleep(time.Millisecond)
	}
	if st := l.Stats(); st.Degradations != 1 || st.Rearms != 1 {
		t.Fatalf("Degradations = %d, Rearms = %d; want 1 and 1", st.Degradations, st.Rearms)
	}
	lsn, err := l.Append(&Record{Kind: KindDelete, Tracker: "y"})
	if err != nil {
		t.Fatalf("Append after re-arm: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil || l.DurableLSN() < lsn {
		t.Fatalf("WaitDurable after re-arm: %v (durable LSN %d < %d)", err, l.DurableLSN(), lsn)
	}
}

// TestCloseStopsRearmLoop: Close on a log that is still damaged returns
// the damage at once, without waiting out the loop's backoff, and leaves
// no goroutine behind.
func TestCloseStopsRearmLoop(t *testing.T) {
	before := runtime.NumGoroutine()
	fault := vfs.NewFault(vfs.OS())
	l, _ := collectOpen(t, Options{Dir: t.TempDir(), FS: fault, RearmDelay: time.Hour})
	boom := damage(t, l, fault)
	start := time.Now()
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close of a damaged log = %v, want %v", err, boom)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v", d)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTempAndForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"notes.txt", "wal-abc.seg", "wal-1.seg"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	l, got := collectOpen(t, Options{Dir: dir})
	defer l.Close()
	if len(got) != 0 {
		t.Fatalf("replayed %d records from foreign files", len(got))
	}
}

// TestReadFailureIsNotATear: a segment streamed through the frame reader
// can fail to read part-way. That is an I/O error — Open and ReplayFrom
// return it, and nothing is truncated — never a torn tail or corruption,
// which only a short or malformed record is.
func TestReadFailureIsNotATear(t *testing.T) {
	dir := t.TempDir()
	l, _ := collectOpen(t, Options{Dir: dir})
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 44)
		rows[i][i%44] = float64(i)
	}
	var want []Record
	for i := range 20 { // ≈ 450 KB: the frame reader takes it in over several Reads
		want = append(want, Record{Kind: KindRows, Tracker: "big", Site: i % 3, Dim: 44, Rows: rows})
	}
	want = appendAll(t, l, want)
	seg := l.segPath
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected read failure")
	fault := vfs.NewFault(vfs.OS())
	fault.FailNth(vfs.OpRead, 1, boom)
	replayed := 0
	if _, err := Open(Options{Dir: dir, FS: fault}, func(*Record) error { replayed++; return nil }); !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with a failing second Read: %v, want %v", err, boom)
	}
	if replayed == 0 || replayed == len(want) {
		t.Fatalf("the Read failed after %d of %d records; want it part-way", replayed, len(want))
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, whole) {
		t.Fatalf("a failed read changed the segment (%d → %d bytes, %v)", len(whole), len(after), err)
	}

	fault = vfs.NewFault(vfs.OS())
	l2, got := collectOpen(t, Options{Dir: dir, FS: fault})
	defer l2.Close()
	if !equalRecords(got, want) || l2.Stats().TornTruncations != 0 {
		t.Fatalf("reopened with %d records, %d torn truncations", len(got), l2.Stats().TornTruncations)
	}
	fault.FailOp(vfs.OpRead, boom)
	if err := l2.ReplayFrom(0, func(*Record) error { return nil }); !errors.Is(err, boom) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayFrom with failing reads: %v, want %v", err, boom)
	}
}
