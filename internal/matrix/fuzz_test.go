package matrix

import (
	"math"
	"testing"
)

// decodeMatrix expands fuzz bytes into a small matrix with entries in
// [-8, 8); shape is derived from the first two bytes.
func decodeMatrix(data []byte) *Dense {
	if len(data) < 3 {
		return nil
	}
	r := 1 + int(data[0]%8)
	c := 1 + int(data[1]%8)
	vals := data[2:]
	if len(vals) < r*c {
		return nil
	}
	m := NewDense(r, c)
	for i := 0; i < r*c; i++ {
		m.data[i] = (float64(vals[i]) - 127) / 16
	}
	return m
}

// FuzzEigSymIdentities checks the symmetric eigendecomposition on arbitrary
// small symmetric matrices.
func FuzzEigSymIdentities(f *testing.F) {
	f.Add([]byte{3, 3, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add([]byte{2, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeMatrix(data)
		if a == nil || a.Rows() != a.cols {
			return
		}
		s := SymFromDense(a)
		vals, V, err := EigSym(s)
		if err != nil {
			t.Fatalf("EigSym failed: %v", err)
		}
		if !IsOrthonormalCols(V, 1e-8) {
			t.Fatal("eigenvectors not orthonormal")
		}
		// Trace identity.
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum-s.Trace()) > 1e-8*(1+math.Abs(s.Trace())) {
			t.Fatalf("Σλ=%v vs trace=%v", sum, s.Trace())
		}
		// Reconstruction.
		rec := Reconstruct(V, vals)
		n := s.Dim()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(rec.At(i, j)-s.At(i, j)) > 1e-7*(1+s.MaxAbs())*float64(n) {
					t.Fatalf("reconstruction off at (%d,%d)", i, j)
				}
			}
		}
	})
}
