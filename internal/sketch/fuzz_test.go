package sketch

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeStream deterministically expands fuzz bytes into a weighted stream:
// each 3-byte group becomes (element, weight) with weight in [1, 32].
func decodeStream(data []byte) []WeightedElement {
	var out []WeightedElement
	for i := 0; i+2 < len(data); i += 3 {
		e := uint64(binary.LittleEndian.Uint16(data[i : i+2]))
		w := 1 + float64(data[i+2]%32)
		out = append(out, WeightedElement{Elem: e % 64, Weight: w})
	}
	return out
}

// FuzzMGInvariant checks the Misra–Gries undercount invariant on arbitrary
// streams: 0 ≤ f_e − f̂_e ≤ Deducted ≤ W/(k+1).
func FuzzMGInvariant(f *testing.F) {
	f.Add([]byte{1, 0, 5, 2, 0, 9, 1, 0, 3}, uint8(4))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{255, 255, 31, 0, 0, 0, 7, 7, 7, 9, 9, 9}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kb uint8) {
		k := 1 + int(kb%16)
		s := decodeStream(data)
		m := NewMG(k)
		exact := make(map[uint64]float64)
		var w float64
		for _, it := range s {
			m.Update(it.Elem, it.Weight)
			exact[it.Elem] += it.Weight
			w += it.Weight
		}
		if m.Size() > k {
			t.Fatalf("size %d exceeds k=%d", m.Size(), k)
		}
		if m.deducted > w/float64(k+1)+1e-9 {
			t.Fatalf("deducted %v exceeds W/(k+1)=%v", m.deducted, w/float64(k+1))
		}
		for e, fe := range exact {
			under := fe - m.Estimate(e)
			if under < -1e-9 || under > m.deducted+1e-9 {
				t.Fatalf("element %d: undercount %v outside [0, %v]", e, under, m.deducted)
			}
		}
	})
}

// FuzzFDGuarantee checks the Frequent Directions deterministic guarantee
// on arbitrary small row streams and probe directions.
func FuzzFDGuarantee(f *testing.F) {
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80}, uint8(2))
	f.Add([]byte{0, 0, 0, 1}, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, ellb uint8) {
		const d = 4
		ell := 1 + int(ellb%6)
		fd := NewFD(ell, d)
		var rows [][]float64
		for i := 0; i+d-1 < len(data); i += d {
			row := make([]float64, d)
			nonzero := false
			for j := 0; j < d; j++ {
				row[j] = (float64(data[i+j]) - 127) / 16
				if row[j] != 0 {
					nonzero = true
				}
			}
			if !nonzero {
				continue
			}
			rows = append(rows, row)
			fd.Append(row)
		}
		if len(rows) == 0 {
			return
		}
		var total float64
		for _, r := range rows {
			total += NormSqLocal(r)
		}
		if fd.Deducted() > total/float64(ell+1)+1e-6*(1+total) {
			t.Fatalf("deducted %v exceeds bound %v", fd.Deducted(), total/float64(ell+1))
		}
		// Probe the standard basis directions.
		for j := 0; j < d; j++ {
			x := make([]float64, d)
			x[j] = 1
			var ax float64
			for _, r := range rows {
				ax += r[j] * r[j]
			}
			bx := fd.Gram().Quad(x)
			diff := ax - bx
			if diff < -1e-6*(1+total) || diff > fd.Deducted()+1e-6*(1+total) {
				t.Fatalf("direction e%d: ‖Ax‖²−‖Bx‖² = %v outside [0, %v]", j, diff, fd.Deducted())
			}
		}
	})
}

// NormSqLocal avoids importing matrix in the fuzz file.
func NormSqLocal(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// FuzzMGMergeCommutes checks that merging in either order yields identical
// total weight and consistent size bounds.
func FuzzMGMergeCommutes(f *testing.F) {
	f.Add([]byte{1, 0, 5, 2, 0, 9}, []byte{3, 0, 7, 1, 0, 2}, uint8(3))
	f.Fuzz(func(t *testing.T, a, b []byte, kb uint8) {
		k := 1 + int(kb%12)
		sa, sb := decodeStream(a), decodeStream(b)
		m1, m2 := NewMG(k), NewMG(k)
		m3, m4 := NewMG(k), NewMG(k)
		for _, it := range sa {
			m1.Update(it.Elem, it.Weight)
			m3.Update(it.Elem, it.Weight)
		}
		for _, it := range sb {
			m2.Update(it.Elem, it.Weight)
			m4.Update(it.Elem, it.Weight)
		}
		m1.Merge(m2) // A←B
		m4.Merge(m3) // B←A
		if math.Abs(m1.weight-m4.weight) > 1e-9 {
			t.Fatalf("merge weight differs by order: %v vs %v", m1.weight, m4.weight)
		}
		if m1.Size() > k || m4.Size() > k {
			t.Fatal("merge exceeded capacity")
		}
	})
}
