// Package stream provides the distributed-streaming substrate: exact message
// accounting in the coordinator model of Cormode–Muthukrishnan–Yi,
// deterministic drivers that split a stream across m sites, the P1 rule
// the three P1s (matrix, heavy hitters and quantiles) share, and the
// θ-doubling WeightTracker both P4s (heavy hitters and matrix) build on.
//
// The model: m sites each observe a disjoint substream; every site has a
// two-way channel with one coordinator; sites never talk to each other.
// The protocols in internal/hh and internal/core are plain single-threaded
// state machines wired to an Accountant, so simulations are deterministic
// and message counts are exact — which is what the paper measures (it
// reports message counts, not wall-clock network behaviour).
package stream

import (
	"fmt"
	"math/rand"
	"sync"
)

// Stats tallies protocol communication. The paper's "msg" metric counts
// every scalar-form and vector-form message, with a coordinator broadcast to
// m sites counting as m messages.
type Stats struct {
	UpMsgs     int64 // site → coordinator messages
	DownMsgs   int64 // coordinator → site messages (broadcast fan-out included)
	Broadcasts int64 // number of broadcast events (each adds m to DownMsgs)
	UpUnits    int64 // size-weighted volume: 1 unit = 1 scalar or 1 length-d row
	DownUnits  int64
}

// Total returns the headline message count UpMsgs + DownMsgs.
func (s Stats) Total() int64 { return s.UpMsgs + s.DownMsgs }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.UpMsgs += other.UpMsgs
	s.DownMsgs += other.DownMsgs
	s.Broadcasts += other.Broadcasts
	s.UpUnits += other.UpUnits
	s.DownUnits += other.DownUnits
}

func (s Stats) String() string {
	return fmt.Sprintf("up=%d down=%d (broadcasts=%d) units=%d (up=%d down=%d)",
		s.UpMsgs, s.DownMsgs, s.Broadcasts, s.UpUnits+s.DownUnits, s.UpUnits, s.DownUnits)
}

// CheckSites reports whether m is a valid site count. Protocol
// constructors report it as an error; the constructors here, whose
// callers have already checked, panic on it — so both agree on what is
// valid.
func CheckSites(m int) error {
	if m < 1 {
		return fmt.Errorf("stream: need m ≥ 1 sites, got %d", m)
	}
	return nil
}

// Accountant counts messages for a protocol instance with m sites.
// Protocols call SendUp when a site transmits to the coordinator and
// Broadcast when the coordinator transmits to all sites.
//
// The counters are guarded by a mutex, so Stats may be read concurrently
// with ingestion — an observability endpoint can scrape a live tracker
// without pausing its feeders.
type Accountant struct {
	m  int
	mu sync.Mutex
	//distlint:guarded-by mu
	stats Stats
}

// NewAccountant returns an accountant for m ≥ 1 sites, for callers that
// have already validated m (every protocol constructor has, through
// CheckSites); an invalid site count panics.
func NewAccountant(m int) *Accountant {
	if err := CheckSites(m); err != nil {
		panic(err.Error())
	}
	return &Accountant{m: m}
}

// Sites returns m.
func (a *Accountant) Sites() int { return a.m }

// SendUp records one site→coordinator message carrying units of payload
// (1 per scalar, 1 per length-d row).
//
//distlint:hotpath
func (a *Accountant) SendUp(units int) {
	a.mu.Lock()
	a.stats.UpMsgs++
	a.stats.UpUnits += int64(units)
	a.mu.Unlock()
}

// SendUpN records n messages of unitEach payload each (e.g. a summary of n
// counters sent as n scalar messages).
//
//distlint:hotpath
func (a *Accountant) SendUpN(n, unitEach int) {
	a.mu.Lock()
	a.stats.UpMsgs += int64(n)
	a.stats.UpUnits += int64(n) * int64(unitEach)
	a.mu.Unlock()
}

// Broadcast records one coordinator→all-sites broadcast carrying units of
// payload per site. It counts as m down-messages per the paper's metric.
//
//distlint:hotpath
func (a *Accountant) Broadcast(units int) {
	a.mu.Lock()
	a.stats.Broadcasts++
	a.stats.DownMsgs += int64(a.m)
	a.stats.DownUnits += int64(a.m) * int64(units)
	a.mu.Unlock()
}

// Stats returns a consistent snapshot of the accumulated counters. Safe to
// call while other goroutines record messages.
func (a *Accountant) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Reset zeroes the counters.
func (a *Accountant) Reset() {
	a.mu.Lock()
	a.stats = Stats{}
	a.mu.Unlock()
}

// RestoreStats overwrites the counters with a previously captured snapshot;
// checkpoint restore uses it to resume the communication tally.
func (a *Accountant) RestoreStats(s Stats) {
	a.mu.Lock()
	a.stats = s
	a.mu.Unlock()
}

// Assigner deals stream elements to sites. Implementations must be
// deterministic given their construction parameters.
type Assigner interface {
	// Next returns the site (in [0, m)) receiving the next stream element.
	Next() int
	// Sites returns m.
	Sites() int
}

// RoundRobin assigns elements to sites cyclically.
type RoundRobin struct {
	m, next int
}

// NewRoundRobin returns a cyclic assigner over m sites.
func NewRoundRobin(m int) *RoundRobin {
	if err := CheckSites(m); err != nil {
		panic(err.Error())
	}
	return &RoundRobin{m: m}
}

// Next implements Assigner.
func (r *RoundRobin) Next() int {
	s := r.next
	r.next = (r.next + 1) % r.m
	return s
}

// Sites implements Assigner.
func (r *RoundRobin) Sites() int { return r.m }

// UniformRandom assigns each element to a uniformly random site, the
// arrival model used in the paper's experiments.
type UniformRandom struct {
	m    int
	seed int64
	rng  *rand.Rand
}

// NewUniformRandom returns a random assigner over m sites seeded with seed.
func NewUniformRandom(m int, seed int64) *UniformRandom {
	if err := CheckSites(m); err != nil {
		panic(err.Error())
	}
	return &UniformRandom{m: m, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Assigner.
func (u *UniformRandom) Next() int { return u.rng.Intn(u.m) }

// Sites implements Assigner.
func (u *UniformRandom) Sites() int { return u.m }

// Seed returns the seed the assigner was constructed with; checkpoint
// restore rebuilds the assigner from it and replays the draw count.
func (u *UniformRandom) Seed() int64 { return u.seed }
