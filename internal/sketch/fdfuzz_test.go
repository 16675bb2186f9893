package sketch

import (
	"bytes"
	"reflect"
	"testing"
)

// decodeFDRows deterministically expands fuzz bytes into d-dimensional
// rows with small integer-derived entries (never NaN/Inf). Interleaved
// length bytes drive the batch boundaries, so the fuzzer explores
// arbitrary splits of the same stream.
func decodeFDRows(data []byte, d int) (rows [][]float64, splits []int) {
	i := 0
	for i < len(data) {
		// One length byte, then up to that many rows of d bytes each.
		n := 1 + int(data[i]%7)
		i++
		batch := 0
		for r := 0; r < n && i+d <= len(data); r++ {
			row := make([]float64, d)
			for j := 0; j < d; j++ {
				row[j] = float64(int8(data[i+j])) / 8
			}
			i += d
			rows = append(rows, row)
			batch++
		}
		splits = append(splits, batch)
	}
	return rows, splits
}

// FuzzFDBlockedEquivalence feeds arbitrary row streams split at arbitrary
// batch boundaries and asserts that AppendRows is exactly equivalent to
// repeated Append on the sketch's complete state, compared through
// Snapshot.
func FuzzFDBlockedEquivalence(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(2), uint8(3))
	f.Add([]byte{1, 200, 100, 0, 2, 9, 9, 9, 9}, uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{5, 250, 17, 130, 4}, 40), uint8(4), uint8(6))
	f.Add([]byte{}, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, ellB, dB uint8) {
		d := 1 + int(dB%8)
		ell := 1 + int(ellB%12)
		block := 1 + int(ellB/16) // exercises block sizes 1..16 alongside ℓ
		rows, splits := decodeFDRows(data, d)

		rowPath := NewFDBuffered(ell, d, block)
		for _, row := range rows {
			rowPath.Append(row)
		}

		blocked := NewFDBuffered(ell, d, block)
		start := 0
		for _, n := range splits {
			blocked.AppendRows(rows[start : start+n])
			start += n
		}

		want := rowPath.Snapshot()
		got := blocked.Snapshot()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("blocked sketch diverges from row-at-a-time:\nrow:     %+v\nblocked: %+v", want, got)
		}
	})
}
