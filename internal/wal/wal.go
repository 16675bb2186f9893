// Package wal is the write-ahead block log under internal/service's
// durability layer: a segmented, append-only log of ingested batches
// (tracker create/delete marks plus row and item blocks), each record a
// CRC-checked, length-prefixed internal/frame frame, as on the wire.
//
// # Write path
//
// Append stages a record and assigns its LSN under the log mutex — call
// it inside the same critical section that applies the batch, so LSN
// order equals apply order. WaitDurable then blocks until an fsync
// covers the LSN: the first waiter becomes the flush leader and
// writes+syncs everything staged (group commit — while one fsync is in
// flight, later appends stage behind it and ride the next one).
//
// # Recovery
//
// Open streams the segments in LSN order and replays every intact record
// through the caller's callback; a failed read fails Open. The first bad
// record in the final segment — short header or payload, bad CRC,
// malformed payload, or a non-increasing LSN — is a torn tail: the file is
// truncated at the last good record and the log continues from there. A
// bad record in any
// earlier segment cannot be a tear (the writer never wrote past it) and
// fails Open with ErrCorrupt. Records past the last durable flush may
// include batches whose acknowledgements never went out; they replay
// too — the log guarantees acknowledged batches survive, and unacked
// ones are at-least-once.
//
// # Failure and re-arm
//
// A failed write or fsync marks the log damaged: the staged tail is
// discarded (its waiters get the error; nothing was acknowledged) and
// every Append/WaitDurable fails with the same error until Rearm
// truncates the active segment back to its durable length and proves a
// fresh sync. The log re-arms itself: damage starts a background loop
// that retries Rearm with exponential backoff until it succeeds or the
// log closes. The service layer maps damage onto its degraded mode.
//
// # Compaction
//
// A checkpoint that covers every record up to LSN k makes those records
// dead weight; Compact(k) deletes the closed segments that hold only
// LSNs ≤ k. The active segment is never deleted.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/vfs"
)

// Log errors, matched with errors.Is.
var (
	// ErrClosed reports an operation on a closed log.
	ErrClosed = errors.New("wal: closed")

	// ErrCorrupt reports a bad record before the log's tail — real
	// corruption, not a crash artifact, so Open refuses to guess.
	ErrCorrupt = errors.New("wal: corrupt record before log tail")
)

// Options configures a Log.
type Options struct {
	// Dir is the segment directory, created if absent.
	Dir string

	// FS is the filesystem seam; nil means the real one.
	FS vfs.FS

	// SegmentBytes is the rotation threshold (default 16 MiB): a flush
	// that leaves the active segment at or beyond it opens a new segment.
	SegmentBytes int64

	// RearmDelay is the first backoff of the re-arm loop a damaged log
	// runs (default 100ms, doubling to 32×).
	RearmDelay time.Duration

	// Logf, when set, receives operational log lines (torn-tail
	// truncations, re-arms).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = vfs.OS()
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.RearmDelay <= 0 {
		o.RearmDelay = 100 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// segmentInfo is one closed (no longer written) segment.
type segmentInfo struct {
	start uint64 // first LSN the segment may contain
	path  string
	bytes int64
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	LSN        uint64 `json:"lsn"`         // highest assigned LSN
	DurableLSN uint64 `json:"durable_lsn"` // highest fsync-covered LSN
	Segments   int    `json:"segments"`    // segment files, active included
	Bytes      int64  `json:"bytes"`       // durable bytes across segments

	Appends           int64 `json:"appends"`
	Flushes           int64 `json:"flushes"`
	Rotations         int64 `json:"rotations"`
	SegmentsCompacted int64 `json:"segments_compacted"`
	TornTruncations   int64 `json:"torn_truncations"`
	Degradations      int64 `json:"degradations"` // times the log became damaged
	Rearms            int64 `json:"rearms"`       // successful Rearm calls

	Damaged string `json:"damaged,omitempty"` // sticky failure, "" when armed
}

// Log is a segmented write-ahead log. Safe for concurrent use.
type Log struct {
	opts Options
	fs   vfs.FS

	mu   sync.Mutex
	cond *sync.Cond // broadcast on flush completion, damage, re-arm, close

	buf   []byte //distlint:guarded-by mu
	spare []byte //distlint:guarded-by mu

	//distlint:guarded-by mu
	nextLSN uint64 // next LSN Append assigns
	//distlint:guarded-by mu
	stagedLSN uint64 // highest staged LSN
	//distlint:guarded-by mu
	durableLSN uint64 // highest fsync-covered LSN

	seg        vfs.File //distlint:guarded-by mu
	segPath    string   //distlint:guarded-by mu
	segStart   uint64   //distlint:guarded-by mu
	segDurable int64    //distlint:guarded-by mu

	segments []segmentInfo //distlint:guarded-by mu

	flushing bool  //distlint:guarded-by mu
	damaged  error //distlint:guarded-by mu
	rearming bool  //distlint:guarded-by mu
	closed   bool  //distlint:guarded-by mu

	//distlint:guarded-by mu
	appends, flushes, rotations, compacted, torn, degradations, rearms int64

	// stop, closed by Close, ends the re-arm loop; loops waits it out.
	stop  chan struct{}
	loops sync.WaitGroup
}

// Open scans the log directory, truncates any torn tail, replays every
// intact record through fn in LSN order, and returns the log positioned
// to append. Records handed to fn borrow scratch buffers valid only
// during the call. A non-nil error from fn aborts Open.
func Open(opts Options, fn func(*Record) error) (*Log, error) {
	opts = opts.withDefaults()
	l := &Log{opts: opts, fs: opts.FS, stop: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	if err := l.fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: log dir: %w", err)
	}
	if err := l.recover(fn); err != nil {
		return nil, err
	}
	return l, nil
}

// Append stages one record, assigning and returning its LSN. The record
// is durable only once WaitDurable(lsn) returns nil. Call Append inside
// the critical section that applies the batch so LSN order matches
// apply order; WaitDurable belongs outside it.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.damaged != nil {
		return 0, l.damaged
	}
	rec.LSN = l.nextLSN
	buf, err := appendRecord(l.buf, rec)
	if err != nil {
		return 0, err // encoding rejected: nothing staged, LSN not consumed
	}
	l.buf = buf
	l.nextLSN++
	l.stagedLSN = rec.LSN
	l.appends++
	return rec.LSN, nil
}

// WaitDurable blocks until an fsync covers lsn. The caller may perform
// the flush itself; concurrent waiters share one fsync (group commit).
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.durableLSN >= lsn {
			return nil
		}
		if l.damaged != nil {
			return l.damaged
		}
		if l.closed {
			return ErrClosed
		}
		if l.flushing {
			l.cond.Wait()
			continue
		}
		l.flushLocked()
	}
}

// Sync flushes everything staged and blocks until it is durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	staged := l.stagedLSN
	l.mu.Unlock()
	if staged == 0 {
		return nil
	}
	return l.WaitDurable(staged)
}

// flushLocked writes and fsyncs everything staged. Called with mu held
// and flushing false; it releases mu for the file I/O and re-acquires it
// before returning. A failure marks the log damaged and discards the
// staged tail — its waiters observe the error, and Rearm truncates the
// file back to the durable boundary.
func (l *Log) flushLocked() {
	l.flushing = true
	buf := l.buf
	staged := l.stagedLSN
	if l.spare != nil {
		l.buf = l.spare[:0]
		l.spare = nil
	} else {
		l.buf = nil
	}
	seg := l.seg
	l.mu.Unlock()

	var err error
	if len(buf) > 0 {
		_, err = seg.Write(buf)
	}
	if err == nil {
		err = seg.Sync()
	}

	l.mu.Lock()
	l.flushing = false
	l.flushes++
	if err != nil {
		l.damageLocked(fmt.Errorf("wal: flush: %w", err))
		// The staged bytes in buf (and anything staged since) may be
		// partially on disk without a covering sync; none of it was
		// acknowledged. Rearm discards the staged tail and truncates the
		// segment back to segDurable.
	} else {
		l.segDurable += int64(len(buf))
		l.durableLSN = staged
		l.spare = buf[:0]
		if l.segDurable >= l.opts.SegmentBytes && len(l.buf) == 0 && !l.closed {
			l.rotateLocked()
		}
	}
	l.cond.Broadcast()
}

// damageLocked marks a healthy log damaged and starts the re-arm loop
// unless one is already running or the log is closing. Called with mu
// held, from the flush that failed.
func (l *Log) damageLocked(err error) {
	l.damaged = err
	l.degradations++
	l.opts.Logf("wal: damaged, appends refused until re-arm: %v", err)
	if !l.rearming && !l.closed {
		l.rearming = true
		l.loops.Add(1)
		go l.rearmLoop()
	}
}

// rearmLoop retries Rearm with exponential backoff until the log is
// healthy again or closes. A successful Rearm clears rearming in the
// critical section that clears damaged, so a failure right after it
// starts a fresh loop.
func (l *Log) rearmLoop() {
	defer l.loops.Done()
	delay := l.opts.RearmDelay
	for {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-l.stop:
			timer.Stop()
			return
		}
		err := l.Rearm()
		if err == nil || errors.Is(err, ErrClosed) {
			return
		}
		delay = min(2*delay, 32*l.opts.RearmDelay)
		l.opts.Logf("wal: re-arm failed (next attempt in %v): %v", delay, err)
	}
}

// rotateLocked closes the active segment and opens a fresh one named by
// the next LSN to be assigned. Called with mu held, with nothing staged.
func (l *Log) rotateLocked() {
	path := l.segmentPath(l.nextLSN)
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		l.damageLocked(fmt.Errorf("wal: rotating: %w", err))
		return
	}
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		_ = l.fs.Remove(path)
		l.damageLocked(fmt.Errorf("wal: rotating: %w", err))
		return
	}
	l.seg.Close()
	l.segments = append(l.segments, segmentInfo{start: l.segStart, path: l.segPath, bytes: l.segDurable})
	l.seg, l.segPath, l.segStart, l.segDurable = f, path, l.nextLSN, 0
	l.rotations++
}

// Rearm clears a damaged log: it discards the staged (never
// acknowledged) tail, reopens the active segment, truncates it back to
// its durable length, and proves a sync. Returns nil when the log is
// healthy again; the caller retries later otherwise.
func (l *Log) Rearm() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.damaged == nil {
		return nil
	}
	l.buf = l.buf[:0]
	l.stagedLSN = l.durableLSN
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
	f, err := l.fs.OpenFile(l.segPath, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: rearm: %w", err)
	}
	if err := l.rearmSegment(f); err != nil {
		f.Close()
		return err
	}
	l.seg = f
	l.damaged, l.rearming = nil, false
	l.rearms++
	l.opts.Logf("wal: re-armed at LSN %d (%s truncated to %d bytes)", l.durableLSN, l.segPath, l.segDurable)
	l.cond.Broadcast()
	return nil
}

// rearmSegment restores f to the durable prefix: truncate, seek to the
// append position, and a proving sync.
//
//distlint:caller-holds mu
func (l *Log) rearmSegment(f vfs.File) error {
	if err := f.Truncate(l.segDurable); err != nil {
		return fmt.Errorf("wal: rearm truncate: %w", err)
	}
	if _, err := f.Seek(l.segDurable, io.SeekStart); err != nil {
		return fmt.Errorf("wal: rearm seek: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: rearm sync: %w", err)
	}
	return nil
}

// Damaged returns the sticky failure, or nil while the log is armed.
func (l *Log) Damaged() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.damaged
}

// DurableLSN returns the highest LSN covered by an fsync.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durableLSN
}

// Compact deletes every closed segment whose records are all covered
// (LSN ≤ covered), returning how many were removed. The active segment
// survives regardless.
func (l *Log) Compact(covered uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	removed := 0
	for len(l.segments) > 0 {
		// Every LSN in segments[0] is below the next segment's start.
		next := l.segStart
		if len(l.segments) > 1 {
			next = l.segments[1].start
		}
		if next > covered+1 {
			break
		}
		if err := l.fs.Remove(l.segments[0].path); err != nil {
			return removed, fmt.Errorf("wal: compacting: %w", err)
		}
		l.segments = l.segments[1:]
		removed++
		l.compacted++
	}
	if removed > 0 {
		_ = l.fs.SyncDir(l.opts.Dir)
	}
	return removed, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		LSN:        l.nextLSN - 1,
		DurableLSN: l.durableLSN,
		Segments:   len(l.segments) + 1,
		Bytes:      l.segDurable,

		Appends:           l.appends,
		Flushes:           l.flushes,
		Rotations:         l.rotations,
		SegmentsCompacted: l.compacted,
		TornTruncations:   l.torn,
		Degradations:      l.degradations,
		Rearms:            l.rearms,
	}
	for _, s := range l.segments {
		st.Bytes += s.bytes
	}
	if l.damaged != nil {
		st.Damaged = l.damaged.Error()
	}
	return st
}

// Close flushes everything staged (when healthy), stops the re-arm
// loop, and closes the active segment. Returns the sticky damage
// error, if any — staged records behind a damaged log are NOT durable.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	for l.flushing {
		l.cond.Wait()
	}
	if l.damaged == nil && l.durableLSN < l.stagedLSN {
		l.flushLocked()
	}
	err := l.damaged
	l.closed = true
	seg := l.seg
	l.seg = nil
	l.cond.Broadcast()
	l.mu.Unlock()

	close(l.stop)
	l.loops.Wait()
	if seg != nil {
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
