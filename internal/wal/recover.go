package wal

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/frame"
	"repro/internal/vfs"
)

// segPrefix/segSuffix frame segment filenames: wal-%020d.seg, the
// zero-padded first LSN the segment may contain.
const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func (l *Log) segmentPath(start uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix))
}

// parseSegmentName extracts the start LSN from a segment filename.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	digits := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(digits) != 20 {
		return 0, false
	}
	start, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return start, true
}

// recover scans the log directory, truncates a torn tail, replays intact
// records through fn, and leaves the log positioned to append. Called
// from Open before any concurrency exists, so it touches fields without
// holding mu.
//
//distlint:caller-holds mu
func (l *Log) recover(fn func(*Record) error) error {
	entries, err := l.fs.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", l.opts.Dir, err)
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		start, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, segmentInfo{start: start, path: filepath.Join(l.opts.Dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })

	if len(segs) == 0 {
		// Fresh log: LSN 0 means "none", assignment starts at 1.
		l.nextLSN = 1
		return l.createSegment(1)
	}

	var (
		rd      recordReader
		lastLSN uint64
	)
	for i, seg := range segs {
		last := i == len(segs)-1
		size, terr, err := l.replaySegment(&rd, seg.path, math.MaxInt64, 0, &lastLSN, fn)
		if err != nil {
			return err
		}
		if terr != nil {
			if !last {
				// The writer rotates only after a clean flush, so a later
				// segment existing past a bad record means this is damage,
				// not a crash artifact.
				return fmt.Errorf("%w: %s: %v", ErrCorrupt, seg.path, terr)
			}
			if err := l.truncateTail(seg.path, size); err != nil {
				return err
			}
			l.torn++
			l.opts.Logf("wal: torn tail: truncated %s to %d bytes (%v)", seg.path, size, terr)
		}
		segs[i].bytes = size
	}

	l.nextLSN = lastLSN + 1
	l.durableLSN = lastLSN
	l.stagedLSN = lastLSN

	tail := segs[len(segs)-1]
	f, err := l.fs.OpenFile(tail.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: opening tail segment: %w", err)
	}
	if _, err := f.Seek(tail.bytes, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("wal: seeking tail segment: %w", err)
	}
	l.seg, l.segPath, l.segStart, l.segDurable = f, tail.path, tail.start, tail.bytes
	l.segments = segs[:len(segs)-1]
	return nil
}

// replaySegment streams the first size bytes of a segment through replay.
func (l *Log) replaySegment(rd *recordReader, path string, size int64, after uint64, lastLSN *uint64, fn func(*Record) error) (int64, error, error) {
	f, err := vfs.Open(l.fs, path)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	defer f.Close()
	return rd.replay(io.LimitReader(f, size), path, after, lastLSN, fn)
}

// replay streams src's records, each LSN above *lastLSN, and hands fn
// those above after. It returns the offset of the first bad record (== the
// bytes read when all are intact) and, separately, what was wrong with it;
// the caller decides whether that is a torn tail or corruption. A failed
// read or a replay-callback error aborts immediately.
func (rd *recordReader) replay(src io.Reader, what string, after uint64, lastLSN *uint64, fn func(*Record) error) (int64, error, error) {
	rd.fr = frame.NewReader(format, src)
	for {
		off := rd.fr.Offset()
		rec, err := rd.next()
		switch {
		case err == io.EOF:
			return off, nil, nil
		case malformed(err):
			return off, err, nil
		case err != nil:
			return off, nil, fmt.Errorf("wal: reading %s: %w", what, err)
		case rec.LSN <= *lastLSN:
			return off, fmt.Errorf("%w: LSN %d after %d", errMalformed, rec.LSN, *lastLSN), nil
		}
		if rec.LSN > after {
			if err := fn(rec); err != nil {
				return off, nil, fmt.Errorf("wal: replaying LSN %d: %w", rec.LSN, err)
			}
		}
		*lastLSN = rec.LSN
	}
}

// truncateTail cuts a torn tail off a segment and syncs the result.
func (l *Log) truncateTail(path string, size int64) error {
	f, err := l.fs.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return nil
}

// createSegment opens the first segment of a fresh log. Only called
// from recover, before the log is shared.
//
//distlint:caller-holds mu
func (l *Log) createSegment(start uint64) error {
	path := l.segmentPath(start)
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := l.fs.SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.seg, l.segPath, l.segStart, l.segDurable = f, path, start, 0
	return nil
}
