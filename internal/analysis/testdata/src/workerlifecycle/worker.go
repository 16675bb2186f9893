// Package workerlifecycle fixtures: positive and negative cases for the
// workerlifecycle analyzer.
package workerlifecycle

// pool is the sharded-ingest shape: per-worker queues, shut down by closing
// every queue.
type pool struct {
	queues []chan int
	done   chan struct{}
}

func (p *pool) startRanged() {
	for i := range p.queues {
		go p.worker(p.queues[i])
	}
}

func (p *pool) worker(q chan int) {
	for range q {
	}
}

func (p *pool) Close() {
	for _, q := range p.queues {
		close(q)
	}
}

// startSelect is the done-channel idiom: a select clause that returns.
func (p *pool) startSelect() {
	go func() {
		for {
			select {
			case v := <-p.queues[0]:
				_ = v
			case <-p.done:
				return
			}
		}
	}()
}

// startCompute launches a goroutine with no channel receives at all: out of
// scope for the lifecycle check.
func (p *pool) startCompute(out *int) {
	go func() {
		*out = 42
	}()
}

// leaky ranges a channel nothing ever closes.
type leaky struct {
	in chan int
}

func (l *leaky) start() {
	go l.run() // want `no reachable shutdown path`
}

func (l *leaky) run() {
	for range l.in {
	}
}

func (l *leaky) startLit() {
	go func() { // want `no reachable shutdown path`
		for v := range l.in {
			_ = v
		}
	}()
}

// startWaived hands lifecycle responsibility elsewhere explicitly.
func (l *leaky) startWaived() {
	go l.run() //distlint:lifecycle-ok drained and abandoned at process exit in tests
}

// eng is the shard-engine shape: workers started in a generic constructor
// through a type-parameterised receiver, ranging queues whose element type
// mentions B — launch, queue field and close() must all resolve through the
// instantiation back to the declarations.
type eng[B any] struct {
	queues []chan B
}

func newEng[B any](p int) *eng[B] {
	e := &eng[B]{queues: make([]chan B, p)}
	for i := range e.queues {
		e.queues[i] = make(chan B)
		go e.worker(i)
	}
	return e
}

func (e *eng[B]) worker(i int) {
	for range e.queues[i] {
	}
}

func (e *eng[B]) Close() {
	for _, q := range e.queues {
		close(q)
	}
}

// leakyEng is the same shape with no Close: its worker can never exit.
type leakyEng[B any] struct {
	in chan B
}

func newLeakyEng[B any]() *leakyEng[B] {
	l := &leakyEng[B]{in: make(chan B)}
	go l.run() // want `no reachable shutdown path`
	return l
}

func (l *leakyEng[B]) run() {
	for range l.in {
	}
}

// startConcrete launches through a concrete instantiation.
func startConcrete(l *leakyEng[int]) {
	go l.run() // want `no reachable shutdown path`
}
