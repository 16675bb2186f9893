// Package mutexguard fixtures: positive and negative cases for the
// mutexguard analyzer.
package mutexguard

import "sync"

type counter struct {
	mu sync.Mutex
	//distlint:guarded-by mu
	n int

	unguarded int
}

type stats struct {
	rw sync.RWMutex
	//distlint:guarded-by rw
	hits int
}

func (c *counter) good() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

// deferred is the defer-unlock idiom: the lock is held to function exit.
func (c *counter) deferred() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func (c *counter) bad() int {
	return c.n // want `guarded by c.mu but accessed without it held`
}

func (c *counter) free() int {
	return c.unguarded
}

// earlyReturn is the lock–check–unlock-early-return idiom: the terminated
// branch must not leak its lock state past the if.
func (c *counter) earlyReturn() int {
	c.mu.Lock()
	if c.n > 0 {
		v := c.n
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	return 0
}

func (c *counter) unlockThenUse() {
	c.mu.Lock()
	c.mu.Unlock()
	c.n++ // want `guarded by c.mu but accessed without it held`
}

// branchMayUnlock: one arm releases, so after the join the lock cannot be
// assumed held.
func (c *counter) branchMayUnlock(drop bool) {
	c.mu.Lock()
	if drop {
		c.mu.Unlock()
	}
	c.n++ // want `guarded by c.mu but accessed without it held`
	if !drop {
		c.mu.Unlock()
	}
}

// bump documents that its caller holds the lock.
//
//distlint:caller-holds mu
func (c *counter) bump() {
	c.n++
}

// addLocked follows the *Locked naming convention: assumed held.
func (c *counter) addLocked(d int) {
	c.n += d
}

// spawned goroutines hold nothing, whatever the spawner holds.
func (c *counter) goroutine() {
	c.mu.Lock()
	go func() {
		c.n++ // want `guarded by c.mu but accessed without it held`
	}()
	c.n++
	c.mu.Unlock()
}

// wrongReceiver: holding c's lock says nothing about other's fields.
func (c *counter) wrongReceiver(other *counter) {
	c.mu.Lock()
	other.n++ // want `guarded by other.mu but accessed without it held`
	c.mu.Unlock()
}

// readLock: RLock counts as holding for reads (the analyzer does not
// distinguish read and write accesses; the write path is vetted by race).
func (s *stats) readLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.hits
}

func (s *stats) badHits() int {
	return s.hits // want `guarded by s.rw but accessed without it held`
}

// eng is the shard-engine shape: a generic type whose guarded fields are
// reached through a type-parameterised receiver. pending's type mentions
// B, so every instantiation (including the receiver's own eng[B]) gets a
// distinct field object — the guard must follow it back to the declaration.
type eng[B any] struct {
	mu      sync.Mutex
	failure any //distlint:guarded-by mu
	pending []B //distlint:guarded-by mu
}

func (e *eng[B]) deal(blk B) {
	e.mu.Lock()
	e.pending = append(e.pending, blk)
	e.mu.Unlock()
	e.pending = nil // want `guarded by e.mu but accessed without it held`
}

func (e *eng[B]) failed() any {
	return e.failure // want `guarded by e.mu but accessed without it held`
}

// drain reaches the guarded fields through a concrete instantiation.
func drain(e *eng[int]) int {
	n := len(e.pending) // want `guarded by e.mu but accessed without it held`
	e.mu.Lock()
	defer e.mu.Unlock()
	return n + len(e.pending)
}
