package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// formatFixture is the segment testdata/format-v1.seg holds: these records,
// appended in this order to a fresh log and closed. The file was written by
// the log's code before its framing moved into internal/frame and is never
// regenerated; it pins the on-disk format (magic "WL", version 1).
func formatFixture() []Record {
	return []Record{
		{Kind: KindCreate, Tracker: "grid", Spec: []byte(`{"kind":"matrix","dim":3}`)},
		{Kind: KindRows, Tracker: "grid", Site: 2, Dim: 3, Rows: [][]float64{{1, -2.5, math.Pi}, {0, math.Copysign(0, -1), 1e-300}}},
		{Kind: KindRows, Tracker: "grid", Site: AssignSite, Dim: 3, Rows: [][]float64{{4, 5, math.Inf(1)}}},
		{Kind: KindItems, Tracker: "grid", Site: 1, Items: []Item{{Elem: 7, Weight: 1}, {Elem: 1 << 40, Weight: 0.25}}},
		{Kind: KindDelete, Tracker: "grid"},
	}
}

// TestFormatFixture: Open replays exactly the fixture's records from the
// committed segment, and the same records appended by this code write that
// segment byte for byte.
func TestFormatFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "format-v1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	recs := formatFixture()
	for i := range recs {
		recs[i].LSN = uint64(i + 1)
	}

	dir := t.TempDir()
	seg := filepath.Join(dir, "wal-00000000000000000001.seg")
	if err := os.WriteFile(seg, want, 0o600); err != nil {
		t.Fatal(err)
	}
	l, got := collectOpen(t, Options{Dir: dir})
	if st := l.Stats(); st.TornTruncations != 0 || st.LSN != uint64(len(recs)) {
		t.Fatalf("fixture reopened with %d torn truncations at LSN %d", st.TornTruncations, st.LSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !equalRecords(got, recs) {
		t.Fatalf("fixture replayed\n%+v\nwant\n%+v", got, recs)
	}

	dir = t.TempDir()
	l, _ = collectOpen(t, Options{Dir: dir})
	for i := range recs {
		rec := recs[i]
		if _, err := l.Append(&rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, "wal-00000000000000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, want) {
		t.Fatalf("the fixture's records append to\n% x\nwant\n% x", written, want)
	}
}
