// Package hotpathalloc fixtures: positive and negative cases for the
// hotpathalloc analyzer.
package hotpathalloc

type buf struct {
	vals []float64
	tag  string
}

// addBlock is the shape of a real hot loop: index arithmetic and in-place
// accumulation only. No diagnostics.
//
//distlint:hotpath
func addBlock(b *buf, rows [][]float64) {
	for _, r := range rows {
		for i, v := range r {
			b.vals[i] += v
		}
	}
}

// coldGrow is NOT annotated: the same constructs are fine off the hot path.
func coldGrow(b *buf, v float64) {
	b.vals = append(b.vals, v)
	_ = make([]float64, 8)
}

//distlint:hotpath
func grow(b *buf, v float64) {
	b.vals = append(b.vals, v) // want `append may grow its backing array`
}

//distlint:hotpath
func scratch(n int) []float64 {
	return make([]float64, n) // want `make allocates`
}

//distlint:hotpath
func newBox() *buf {
	return new(buf) // want `new allocates`
}

//distlint:hotpath
func literals() {
	_ = []float64{1, 2}  // want `slice literal allocates`
	_ = map[string]int{} // want `map literal allocates`
	_ = &buf{}           // want `pointer to composite literal allocates`
}

//distlint:hotpath
func closure(n int) func() int {
	return func() int { return n } // want `closure allocates`
}

//distlint:hotpath
func box(v float64) any {
	return any(v) // want `conversion boxes a concrete value into an interface`
}

//distlint:hotpath
func stringify(b *buf) []byte {
	return []byte(b.tag) // want `string/slice conversion allocates`
}

func logf(args ...any) {}

//distlint:hotpath
func variadic(v float64) {
	logf("v", v) // want `arguments box into a variadic interface parameter`
}

// guardPanic shows the panic exemption: everything inside panic arguments
// is off the steady-state path, including the boxing sprintf would do.
//
//distlint:hotpath
func guardPanic(b *buf, i int) float64 {
	if i >= len(b.vals) {
		panic(any(i))
	}
	return b.vals[i]
}

// pooled shows the alloc-ok hatch on the pool-growth line.
//
//distlint:hotpath
func pooled(free [][]float64, n int) []float64 {
	if len(free) == 0 {
		return make([]float64, n) //distlint:alloc-ok pool growth is cold by design
	}
	return free[len(free)-1]
}

// pooledStandalone shows the standalone-comment form covering the line below.
//
//distlint:hotpath
func pooledStandalone(n int) []float64 {
	//distlint:alloc-ok pool growth is cold by design
	return make([]float64, n)
}

// eng is the shard-engine shape: hot functions with a type-parameterised
// receiver are checked like any other.
type eng[B any] struct {
	free []*[]B
	next int
}

//distlint:hotpath
func (e *eng[B]) deal(blk []B) *[]B {
	staged := make([]B, len(blk)) // want `make allocates`
	copy(staged, blk)
	e.next++
	return &staged
}

//distlint:hotpath
func (e *eng[B]) stage(blk []B) *[]B {
	if len(e.free) == 0 {
		buf := make([]B, len(blk)) //distlint:alloc-ok pool miss grows the pool
		return &buf
	}
	buf := e.free[len(e.free)-1]
	*buf = append((*buf)[:0], blk...) // want `append may grow its backing array`
	return buf
}

// stageOf is a generic function rather than a method.
//
//distlint:hotpath
func stageOf[B any](blk []B) any {
	return any(blk) // want `conversion boxes a concrete value into an interface`
}
