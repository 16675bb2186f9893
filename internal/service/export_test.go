package service

import "time"

// SetMaxBodyBytes shrinks the ingest body cap for tests — exercising the
// 413 path without posting 64 MiB. The returned func restores it.
func SetMaxBodyBytes(n int64) (restore func()) {
	old := maxBodyBytes
	maxBodyBytes = n
	return func() { maxBodyBytes = old }
}

// AdmitSlots is the manager-wide admission capacity.
const AdmitSlots = admitSlots

// SetAdmitTimeout shortens (or restores) how long an ingest waits for an
// admission slot before ErrBusy, so the shedding test need not wait 5 s.
func SetAdmitTimeout(m *Manager, d time.Duration) { m.admitTimeout = d }

// HoldTracker takes the tracker's lock, parking every ingest admitted to
// it, until the returned release.
func HoldTracker(t *Tracker) (release func()) {
	t.mu.Lock()
	return t.mu.Unlock
}
