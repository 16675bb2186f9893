package sketch

import (
	"fmt"
	"math"
)

// CountMin is a weighted Count-Min sketch (Cormode & Muthukrishnan, 2005)
// with depth rows of width counters each. Point queries overestimate:
//
//	f_e ≤ Estimate(e) ≤ f_e + εW   with probability ≥ 1 − δ
//
// for width = ⌈e/ε⌉ and depth = ⌈ln(1/δ)⌉. It is the randomized counterpart
// to the deterministic Misra–Gries summary; the paper discusses it as the
// summary behind the Cormode–Garofalakis prediction-sketch protocol.
type CountMin struct {
	width, depth int
	table        []float64 // depth × width, row-major
	seeds        []uint64
	weight       float64
}

// NewCountMin returns a sketch with the given width and depth, seeded
// deterministically from seed so runs are reproducible.
func NewCountMin(width, depth int, seed uint64) *CountMin {
	if width < 1 || depth < 1 {
		panic(fmt.Sprintf("sketch: CountMin needs width,depth ≥ 1, got %d,%d", width, depth))
	}
	c := &CountMin{
		width: width,
		depth: depth,
		table: make([]float64, width*depth),
		seeds: make([]uint64, depth),
	}
	x := seed ^ 0x9e3779b97f4a7c15
	for i := range c.seeds {
		x = splitmix64(x)
		c.seeds[i] = x
	}
	return c
}

// NewCountMinEps returns a sketch sized for additive error ε·W with failure
// probability δ.
//
//distlint:unreachable-ok no program reaches it; ROADMAP item 10 deletes countmin.go with its tests
func NewCountMinEps(eps, delta float64, seed uint64) *CountMin {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("sketch: CountMin needs 0<ε,δ<1, got %v,%v", eps, delta))
	}
	width := int(math.Ceil(math.E / eps))
	depth := int(math.Ceil(math.Log(1 / delta)))
	return NewCountMin(width, depth, seed)
}

// splitmix64 is the standard 64-bit mixing function; used both to derive row
// seeds and as the per-row hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (c *CountMin) bucket(row int, e uint64) int {
	h := splitmix64(e ^ c.seeds[row])
	return int(h % uint64(c.width))
}

// Update adds weight w for element e.
func (c *CountMin) Update(e uint64, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("sketch: negative weight %v", w))
	}
	if w == 0 {
		return
	}
	c.weight += w
	for r := 0; r < c.depth; r++ {
		c.table[r*c.width+c.bucket(r, e)] += w
	}
}

// Estimate returns the point-query overestimate for e.
func (c *CountMin) Estimate(e uint64) float64 {
	est := math.Inf(1)
	for r := 0; r < c.depth; r++ {
		if v := c.table[r*c.width+c.bucket(r, e)]; v < est {
			est = v
		}
	}
	return est
}

// Weight returns total processed weight.
func (c *CountMin) Weight() float64 { return c.weight }

// Width returns the sketch width.
func (c *CountMin) Width() int { return c.width }

// Depth returns the sketch depth.
func (c *CountMin) Depth() int { return c.depth }

// Merge adds another sketch with identical dimensions and seeds.
func (c *CountMin) Merge(other *CountMin) error {
	if c.width != other.width || c.depth != other.depth {
		return fmt.Errorf("sketch: merge CountMin %dx%d with %dx%d",
			c.depth, c.width, other.depth, other.width)
	}
	for i := range c.seeds {
		if c.seeds[i] != other.seeds[i] {
			return fmt.Errorf("sketch: merge CountMin with different seeds")
		}
	}
	for i := range c.table {
		c.table[i] += other.table[i]
	}
	c.weight += other.weight
	return nil
}

// Reset zeroes all counters.
func (c *CountMin) Reset() {
	for i := range c.table {
		c.table[i] = 0
	}
	c.weight = 0
}
