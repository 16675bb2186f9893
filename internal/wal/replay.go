package wal

import (
	"bytes"
	"fmt"
)

// ReplayFrom hands every record with LSN > after to fn, in LSN order —
// a live re-read of the log suffix past a cursor, exactly what Open would
// replay after a restart. internal/service no longer calls it: a
// hibernated tracker's own WAL cursor proves its suffix holds none of its
// records, so fault-in restores the checkpoint and never reads the log.
// It stays for tools that measure or inspect a live log.
//
// The scan runs under the log mutex — appends and flushes wait for it —
// so the suffix it delivers is a consistent instant of the log. Records
// handed to fn borrow scratch buffers valid only during the call.
// Staged-but-unflushed records replay too: they are applied state
// awaiting group commit, and the caller applying them reproduces the
// live ordering. When the log is damaged the staged tail is skipped —
// Rearm is about to discard it, and nothing in it was acknowledged.
func (l *Log) ReplayFrom(after uint64, fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return ErrClosed
	}
	if l.stagedLSN <= after {
		return nil
	}
	var rd recordReader
	var lastLSN uint64
	corrupt := func(what string, off int64, bad, err error) error {
		if bad != nil {
			return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, what, off, bad)
		}
		return err
	}
	for i, seg := range l.segments {
		// Every LSN in this closed segment is below the next segment's
		// start, so a segment whose successor starts at or before after+1
		// holds nothing to replay.
		next := l.segStart
		if i+1 < len(l.segments) {
			next = l.segments[i+1].start
		}
		if next <= after+1 {
			continue
		}
		off, bad, err := l.replaySegment(&rd, seg.path, seg.bytes, after, &lastLSN, fn)
		if err := corrupt(seg.path, off, bad, err); err != nil {
			return err
		}
	}
	if l.segDurable > 0 && l.durableLSN > after {
		// The active segment's durable prefix; anything past segDurable is
		// a failed flush's debris awaiting Rearm truncation.
		off, bad, err := l.replaySegment(&rd, l.segPath, l.segDurable, after, &lastLSN, fn)
		if err := corrupt(l.segPath, off, bad, err); err != nil {
			return err
		}
	}
	if l.damaged == nil && len(l.buf) > 0 {
		off, bad, err := rd.replay(bytes.NewReader(l.buf), "staged tail", after, &lastLSN, fn)
		return corrupt("staged tail", off, bad, err)
	}
	return nil
}
