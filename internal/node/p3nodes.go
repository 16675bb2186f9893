package node

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/sample"
)

// The sampling protocol (P3) halves. Sites are nearly stateless — they hold
// only the current threshold τ and an RNG — which makes P3 the easiest
// protocol to operate: site restarts lose nothing but their RNG position.
// The coordinator maintains the priority sample. Both halves reuse the wire
// Message: a forwarded row travels as KindRow with Value carrying the
// priority ρ (the weight is recomputed from the payload), and threshold
// broadcasts travel as KindEstimate.

// P3Site is the site half of matrix P3 (Algorithm 4.5 with rows).
type P3Site struct {
	id int
	d  int

	mu   sync.Mutex
	tau  float64
	rng  *rand.Rand
	sent int64

	out Sender
}

// NewP3Site builds site id for d-dimensional rows with its own RNG seed.
func NewP3Site(id, d int, seed int64, out Sender) (*P3Site, error) {
	if id < 0 {
		return nil, fmt.Errorf("node: negative site id %d", id)
	}
	if d < 1 {
		return nil, fmt.Errorf("node: need d ≥ 1, got %d", d)
	}
	if out == nil {
		return nil, fmt.Errorf("node: nil sender")
	}
	return &P3Site{id: id, d: d, tau: 1, rng: rand.New(rand.NewSource(seed)), out: out}, nil
}

// ID returns the site id.
func (s *P3Site) ID() int { return s.id }

// HandleRow processes one row arrival: draw a priority and forward the row
// iff it passes the threshold.
func (s *P3Site) HandleRow(row []float64) error {
	if len(row) != s.d {
		return fmt.Errorf("node: row of length %d, want %d", len(row), s.d)
	}
	w := matrix.NormSq(row)
	if w <= 0 {
		return fmt.Errorf("node: need positive row norm")
	}
	s.mu.Lock()
	rho := sample.Priority(w, s.rng)
	if rho < s.tau {
		s.mu.Unlock()
		return nil
	}
	s.sent++
	s.mu.Unlock()

	stored := make([]float64, len(row))
	copy(stored, row)
	return s.out.Send(Message{Kind: KindRow, Site: s.id, Value: rho, Vec: stored})
}

// HandleBroadcast applies a coordinator threshold broadcast.
func (s *P3Site) HandleBroadcast(m Message) error {
	if m.Kind != KindEstimate {
		return fmt.Errorf("node: site received %v message", m.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Value > s.tau {
		s.tau = m.Value
	}
	return nil
}

// Sent returns the number of rows forwarded.
func (s *P3Site) Sent() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sent
}

// P3Coordinator is the coordinator half of matrix P3: a priority sampler
// over forwarded rows, doubling the threshold when the high bucket fills.
type P3Coordinator struct {
	d int

	mu       sync.Mutex
	sampler  *sample.PrioritySampler
	received int64
	bcasts   int64

	broadcast Sender
}

// NewP3Coordinator builds the coordinator with target sample size s for
// d-dimensional rows.
func NewP3Coordinator(d, s int, broadcast Sender) (*P3Coordinator, error) {
	if d < 1 {
		return nil, fmt.Errorf("node: need d ≥ 1, got %d", d)
	}
	if s < 1 {
		return nil, fmt.Errorf("node: need sample size ≥ 1, got %d", s)
	}
	if broadcast == nil {
		return nil, fmt.Errorf("node: nil broadcast sender")
	}
	return &P3Coordinator{d: d, sampler: sample.NewPrioritySampler(s), broadcast: broadcast}, nil
}

// Handle processes one forwarded row.
func (c *P3Coordinator) Handle(m Message) error {
	if m.Kind != KindRow {
		return fmt.Errorf("node: P3 coordinator received %v message", m.Kind)
	}
	if len(m.Vec) != c.d {
		return fmt.Errorf("node: row of length %d, want %d", len(m.Vec), c.d)
	}
	c.mu.Lock()
	c.received++
	newRound := c.sampler.Offer(sample.Prioritized{
		Weight:   matrix.NormSq(m.Vec),
		Priority: m.Value,
		Payload:  m.Vec,
	})
	var toSend *Message
	if newRound {
		c.bcasts++
		toSend = &Message{Kind: KindEstimate, Value: c.sampler.Threshold()}
	}
	c.mu.Unlock()

	if toSend != nil {
		return c.broadcast.Send(*toSend)
	}
	return nil
}

// Gram returns the coordinator's current BᵀB estimate from the sample,
// with the without-replacement reweighting of Section 5.3.
func (c *P3Coordinator) Gram() *matrix.Sym {
	c.mu.Lock()
	items, _ := c.sampler.Sample()
	c.mu.Unlock()
	return core.P3SampleGram(c.d, items)
}

// EstimateFrobenius returns the sample's unbiased ‖A‖²_F estimate.
func (c *P3Coordinator) EstimateFrobenius() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampler.EstimateTotal()
}

// Threshold returns the current round threshold.
func (c *P3Coordinator) Threshold() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampler.Threshold()
}

// Received returns the number of rows processed.
func (c *P3Coordinator) Received() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.received
}

// Broadcasts returns the number of threshold broadcasts issued.
func (c *P3Coordinator) Broadcasts() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bcasts
}

// LocalP3Cluster wires P3 sites directly to a P3 coordinator in-process.
type LocalP3Cluster struct {
	Coordinator *P3Coordinator
	Sites       []*P3Site
}

// NewLocalP3Cluster builds the in-process deployment of matrix P3 with the
// paper's sample size for ε.
//
//distlint:unreachable-ok test entry point: TestWireTransportP3Retention drives node/tcp.go through it until ROADMAP item 13 deletes that transport
func NewLocalP3Cluster(m int, eps float64, d int, seed int64) (*LocalP3Cluster, error) {
	if err := core.CheckParams(m, eps, d); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	fo := &fanout{}
	coord, err := NewP3Coordinator(d, sample.RecommendedSampleSize(eps), fo)
	if err != nil {
		return nil, err
	}
	cl := &LocalP3Cluster{Coordinator: coord}
	for i := 0; i < m; i++ {
		site, err := NewP3Site(i, d, seed+int64(i)*104729, SenderFunc(coord.Handle))
		if err != nil {
			return nil, err
		}
		cl.Sites = append(cl.Sites, site)
		fo.sites = append(fo.sites, site)
	}
	return cl, nil
}

// Feed delivers one row to a site.
func (c *LocalP3Cluster) Feed(site int, row []float64) error {
	if site < 0 || site >= len(c.Sites) {
		return fmt.Errorf("node: site %d out of range [0,%d)", site, len(c.Sites))
	}
	return c.Sites[site].HandleRow(row)
}
