package quantile

import (
	"math"
	"testing"
)

// TestRestoreQDigestRejectsNonFinite: a snapshot whose total or any node
// weight is NaN, infinite or negative is an error, never a digest that
// answers from poisoned state and never a panic.
func TestRestoreQDigestRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, c := range map[string]struct {
		weight float64
		counts map[uint64]float64
		ok     bool
	}{
		"valid":                    {5, map[uint64]float64{300: 2, 1: 3}, true},
		"negative zero node":       {0, map[uint64]float64{300: math.Copysign(0, -1)}, true},
		"NaN node, +Inf total":     {inf, map[uint64]float64{300: nan}, false},
		"NaN node":                 {1, map[uint64]float64{300: nan}, false},
		"+Inf node":                {1, map[uint64]float64{300: inf}, false},
		"-Inf node":                {1, map[uint64]float64{300: -inf}, false},
		"negative node":            {1, map[uint64]float64{300: -1}, false},
		"NaN total":                {nan, map[uint64]float64{300: 1}, false},
		"+Inf total":               {inf, map[uint64]float64{300: 1}, false},
		"-Inf total":               {-inf, nil, false},
		"negative total":           {-1, map[uint64]float64{300: 1}, false},
		"node outside the tree":    {1, map[uint64]float64{1 << 9: 1}, false},
		"node zero":                {1, map[uint64]float64{0: 1}, false},
		"empty":                    {0, nil, true},
		"largest finite weights":   {math.MaxFloat64, map[uint64]float64{511: math.MaxFloat64}, true},
		"smallest positive weight": {5e-324, map[uint64]float64{256: 5e-324}, true},
	} {
		q, err := RestoreQDigest(QDigestSnapshot{Bits: 8, Eps: 0.1, Weight: c.weight, Counts: c.counts, CompressAt: 64})
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok %v", name, err, c.ok)
			continue
		}
		if err == nil && q.Weight() != c.weight {
			t.Errorf("%s: restored weight %v, want %v", name, q.Weight(), c.weight)
		}
	}
}
