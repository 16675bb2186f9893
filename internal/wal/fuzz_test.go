package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// fuzzStream derives a deterministic record stream from fuzz bytes.
func fuzzStream(data []byte) []Record {
	var recs []Record
	for len(data) > 0 && len(recs) < 64 {
		b := data[0]
		data = data[1:]
		take := func(n int) []byte {
			if n > len(data) {
				n = len(data)
			}
			chunk := data[:n]
			data = data[n:]
			return chunk
		}
		name := "t" + string(rune('a'+b%3))
		switch b % 4 {
		case 0:
			dim := 1 + int(b/4)%4
			rows := int(b/16) % 4
			rec := Record{Kind: KindRows, Tracker: name, Site: int(b%7) - 1, Dim: dim}
			if rec.Site < -1 {
				rec.Site = AssignSite
			}
			for range rows {
				row := make([]float64, dim)
				for i := range row {
					raw := take(8)
					var v [8]byte
					copy(v[:], raw)
					row[i] = float64(binary.LittleEndian.Uint64(v[:]) % 1000)
				}
				rec.Rows = append(rec.Rows, row)
			}
			recs = append(recs, rec)
		case 1:
			rec := Record{Kind: KindItems, Tracker: name, Site: AssignSite}
			for range int(b/4) % 5 {
				raw := take(8)
				var v [8]byte
				copy(v[:], raw)
				rec.Items = append(rec.Items, Item{Elem: binary.LittleEndian.Uint64(v[:]), Weight: float64(b)})
			}
			recs = append(recs, rec)
		case 2:
			recs = append(recs, Record{Kind: KindCreate, Tracker: name, Spec: take(int(b/4) % 9)})
		default:
			recs = append(recs, Record{Kind: KindDelete, Tracker: name})
		}
	}
	return recs
}

// TestRecordReaderRejectsWrappingRowCounts holds the reader to the rows
// check it shares with the wire decoder (frame.Rows): a KindRows record
// whose rows × dim × 8 wraps to its body length — with a valid CRC, which
// FuzzWALRecovery's bit flips never produce — is malformed, not a
// makeslice panic, nor on a 32-bit int a divide by zero. wal.Open's
// recovery and ReplayFrom both read segments through recordReader.next.
func TestRecordReaderRejectsWrappingRowCounts(t *testing.T) {
	for _, tc := range []struct{ rows, dim uint32 }{
		{1 << 31, 1 << 30}, // × 8 = 2⁶⁴ ≡ 0: the 34-byte record
		{1 << 30, 1 << 31},
		{1 << 29, 1 << 29}, // 2⁶¹ elements, no wrap, still not 0 bytes
		{1, 1},             // honest count, empty body
	} {
		p := make([]byte, 22) // LSN, empty name, site, rows, dim — and no floats
		binary.LittleEndian.PutUint64(p[0:8], 1)
		binary.LittleEndian.PutUint32(p[14:18], tc.rows)
		binary.LittleEndian.PutUint32(p[18:22], tc.dim)
		img := append(make([]byte, frame.HeaderSize), p...)
		format.Seal(uint8(KindRows), img)

		if _, err := (&recordReader{fr: frame.NewReader(format, bytes.NewReader(img))}).next(); !errors.Is(err, errMalformed) {
			t.Errorf("rows %d × dim %d in a %d-byte record: got %v, want errMalformed", tc.rows, tc.dim, len(img), err)
		}
	}
}

// FuzzWALRecovery writes a record stream to a single-segment log, then
// simulates a crash by truncating the file at an arbitrary byte offset
// or flipping one bit, and asserts recovery always yields a clean prefix
// of the original stream — and that a second recovery is idempotent.
func FuzzWALRecovery(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 251, 252, 253}, uint64(0), false)
	f.Add([]byte{16, 17, 18, 19, 20, 21, 22, 23, 24, 25}, uint64(13), true)
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 99, 98, 97}, uint64(200), false)
	f.Add([]byte{41, 42, 43, 44}, uint64(7), true)

	f.Fuzz(func(t *testing.T, data []byte, pos uint64, flip bool) {
		recs := fuzzStream(data)
		if len(recs) == 0 {
			t.Skip()
		}
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir}, func(*Record) error { return nil })
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want := make([]Record, len(recs))
		for i := range recs {
			rec := recs[i]
			lsn, err := l.Append(&rec)
			if err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
			rec.LSN = lsn
			want[i] = rec
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		seg := l.segPath
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// Crash damage: a torn tail (truncate) or a flipped bit.
		img, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if flip {
			if len(img) == 0 {
				t.Skip()
			}
			i := int(pos % uint64(len(img)*8))
			img[i/8] ^= 1 << (i % 8)
		} else {
			img = img[:int(pos%uint64(len(img)+1))]
		}
		if err := os.WriteFile(seg, img, 0o600); err != nil {
			t.Fatal(err)
		}

		replayOnce := func() []Record {
			var got []Record
			l, err := Open(Options{Dir: dir}, func(rec *Record) error {
				got = append(got, ownedRecord(rec))
				return nil
			})
			if err != nil {
				t.Fatalf("recovery Open: %v", err)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("recovery Close: %v", err)
			}
			return got
		}

		got := replayOnce()
		// Single-bit and truncation damage can never produce a valid novel
		// record (CRC-32 catches all single-bit errors; a truncated payload
		// fails the length check), so recovery must yield an exact prefix.
		if len(got) > len(want) {
			t.Fatalf("recovered %d records from a %d-record log", len(got), len(want))
		}
		canon := func(r Record) Record {
			if len(r.Rows) == 0 {
				r.Rows = nil
			}
			if len(r.Items) == 0 {
				r.Items = nil
			}
			if len(r.Spec) == 0 {
				r.Spec = nil
			}
			return r
		}
		for i := range got {
			if !reflect.DeepEqual(canon(got[i]), canon(want[i])) {
				t.Fatalf("recovered record %d diverges:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}

		// Recovery is idempotent: the torn tail is gone, so a second open
		// replays the identical prefix with no further truncation.
		again := replayOnce()
		if len(again) != len(got) {
			t.Fatalf("second recovery replayed %d records, first %d", len(again), len(got))
		}
	})
}
