package node

import (
	"repro/internal/core"
	"repro/internal/hh"
)

// Checkpoint/restore for the runtime nodes. A node's snapshot is its
// protocol half's snapshot (defined beside the half) plus what the wrapper
// adds: identity, the site's view of the estimate, traffic counters. Plain
// exported structs for encoding/gob; a restored node resumes exactly where
// the snapshot was taken (what arrived after it is the operator's replay
// responsibility, as with any at-least-once ingestion pipeline).

// HHSiteSnapshot is the serializable state of an HHSite.
type HHSiteSnapshot struct {
	ID    int
	M     int
	Eps   float64
	What  float64
	Half  hh.P2SiteSnapshot
	SentN int64
}

// Snapshot captures the site's state.
func (s *HHSite) Snapshot() HHSiteSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return HHSiteSnapshot{
		ID: s.id, M: s.m, Eps: s.eps,
		What: s.half.Estimate(), Half: s.half.Snapshot(), SentN: s.sent,
	}
}

// RestoreHHSite rebuilds a site from a snapshot, wired to a new sender.
//
//distlint:unreachable-ok no program restores a node; ROADMAP item 10 deletes persist.go with its tests
func RestoreHHSite(snap HHSiteSnapshot, out Sender) (*HHSite, error) {
	s, err := NewHHSite(snap.ID, snap.M, snap.Eps, out)
	if err != nil {
		return nil, err
	}
	s.half.Restore(snap.Half)
	s.half.SetEstimate(snap.What)
	s.sent = snap.SentN
	return s, nil
}

// HHCoordinatorSnapshot is the serializable state of an HHCoordinator.
type HHCoordinatorSnapshot struct {
	M        int
	Eps      float64
	Half     hh.P2CoordinatorSnapshot
	Received int64
	Bcasts   int64
	History  []float64 // broadcast Ŵ trajectory, oldest first
}

// Snapshot captures the coordinator's state.
func (c *HHCoordinator) Snapshot() HHCoordinatorSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return HHCoordinatorSnapshot{
		M: c.m, Eps: c.eps, Half: c.half.Snapshot(),
		Received: c.received, Bcasts: c.bcasts, History: append([]float64(nil), c.history...),
	}
}

// RestoreHHCoordinator rebuilds a coordinator from a snapshot.
//
//distlint:unreachable-ok no program restores a node; ROADMAP item 10 deletes persist.go with its tests
func RestoreHHCoordinator(snap HHCoordinatorSnapshot, broadcast Sender) (*HHCoordinator, error) {
	c, err := NewHHCoordinator(snap.M, snap.Eps, broadcast)
	if err != nil {
		return nil, err
	}
	c.half.Restore(snap.Half)
	c.received, c.bcasts = snap.Received, snap.Bcasts
	c.history = append([]float64(nil), snap.History...)
	return c, nil
}

// MatSiteSnapshot is the serializable state of a MatSite.
type MatSiteSnapshot struct {
	ID    int
	M     int
	D     int
	Eps   float64
	Fast  bool
	Fhat  float64
	Half  core.P2SiteSnapshot
	SentN int64
}

// Snapshot captures the site's state.
func (s *MatSite) Snapshot() MatSiteSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return MatSiteSnapshot{
		ID: s.id, M: s.m, D: s.d, Eps: s.eps, Fast: s.fast,
		Fhat: s.half.Estimate(), Half: s.half.Snapshot(), SentN: s.sent,
	}
}

// RestoreMatSite rebuilds a site from a snapshot.
//
//distlint:unreachable-ok no program restores a node; ROADMAP item 10 deletes persist.go with its tests
func RestoreMatSite(snap MatSiteSnapshot, out Sender) (*MatSite, error) {
	s, err := newMatSite(snap.ID, snap.M, snap.Eps, snap.D, out, snap.Fast)
	if err != nil {
		return nil, err
	}
	if err := s.half.Restore(snap.Half); err != nil {
		return nil, err
	}
	s.half.SetEstimate(snap.Fhat)
	s.sent = snap.SentN
	return s, nil
}

// MatCoordinatorSnapshot is the serializable state of a MatCoordinator.
type MatCoordinatorSnapshot struct {
	M        int
	D        int
	Eps      float64
	Half     core.P2CoordinatorSnapshot
	Received int64
	Bcasts   int64
	History  []float64 // broadcast F̂ trajectory, oldest first
}

// Snapshot captures the coordinator's state.
func (c *MatCoordinator) Snapshot() MatCoordinatorSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MatCoordinatorSnapshot{
		M: c.m, D: c.half.Dim(), Eps: c.eps, Half: c.half.Snapshot(),
		Received: c.received, Bcasts: c.bcasts, History: append([]float64(nil), c.history...),
	}
}

// RestoreMatCoordinator rebuilds a coordinator from a snapshot.
//
//distlint:unreachable-ok no program restores a node; ROADMAP item 10 deletes persist.go with its tests
func RestoreMatCoordinator(snap MatCoordinatorSnapshot, broadcast Sender) (*MatCoordinator, error) {
	c, err := NewMatCoordinator(snap.M, snap.Eps, snap.D, broadcast)
	if err != nil {
		return nil, err
	}
	if err := c.half.Restore(snap.Half); err != nil {
		return nil, err
	}
	c.received, c.bcasts = snap.Received, snap.Bcasts
	c.history = append([]float64(nil), snap.History...)
	return c, nil
}
