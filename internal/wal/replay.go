package wal

import "fmt"

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
	replay := func(data []byte, what string) error {
		off := 0
		for off < len(data) {
			rec, next, err := rd.next(data, off)
			if err != nil {
				return fmt.Errorf("%w: %s at byte %d: %v", ErrCorrupt, what, off, err)
			}
			if rec.LSN > after {
				if ferr := fn(rec); ferr != nil {
					return fmt.Errorf("wal: replaying LSN %d: %w", rec.LSN, ferr)
				}
			}
			off = next
		}
		return nil
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
		data, err := l.readAll(seg.path)
		if err != nil {
			return fmt.Errorf("wal: reading %s: %w", seg.path, err)
		}
		if int64(len(data)) > seg.bytes {
			data = data[:seg.bytes]
		}
		if err := replay(data, seg.path); err != nil {
			return err
		}
	}
	if l.segDurable > 0 && l.durableLSN > after {
		// The active segment's durable prefix; anything past segDurable is
		// a failed flush's debris awaiting Rearm truncation.
		data, err := l.readAll(l.segPath)
		if err != nil {
			return fmt.Errorf("wal: reading %s: %w", l.segPath, err)
		}
		if int64(len(data)) > l.segDurable {
			data = data[:l.segDurable]
		}
		if err := replay(data, l.segPath); err != nil {
			return err
		}
	}
	if l.damaged == nil && len(l.buf) > 0 {
		if err := replay(l.buf, "staged tail"); err != nil {
			return err
		}
	}
	return nil
}
