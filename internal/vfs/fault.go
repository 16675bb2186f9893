package vfs

import (
	"io/fs"
	"sync"
)

// Op names one filesystem operation class for fault injection.
type Op uint8

// Operation classes. OpWrite additionally supports partial-write and
// byte-budget rules (see PartialWriteNth, LimitWriteBytes).
const (
	OpOpenFile Op = iota
	OpRead
	OpWrite
	OpSeek
	OpSync
	OpClose
	OpTruncate
	OpRename
	OpRemove
	OpReadDir
	OpStat
	OpMkdirAll
	OpSyncDir
	opCount
)

func (o Op) String() string {
	names := [...]string{"openfile", "read", "write", "seek", "sync", "close",
		"truncate", "rename", "remove", "readdir", "stat", "mkdirall", "syncdir"}
	if int(o) < len(names) {
		return names[o]
	}
	return "invalid"
}

// Fault wraps an FS and injects failures at scripted operation
// boundaries. All rules count only operations whose path matches the
// Match predicate (default: everything), so a test can target the WAL
// directory while checkpoints proceed, or vice versa. Safe for
// concurrent use — the service's ingest workers and background retry
// loop hit the same Fault.
type Fault struct {
	base FS

	mu     sync.Mutex
	match  func(string) bool //distlint:guarded-by mu
	counts [opCount]int      //distlint:guarded-by mu
	sticky [opCount]error    //distlint:guarded-by mu
	nth    map[Op]map[int]error

	// partial: the n-th matching write persists only keep bytes, then
	// returns err — a torn write.
	partial struct {
		armed   bool
		n, keep int
		err     error
	}

	// budget: matching writes persist bytes until the cumulative budget
	// runs out; the write that crosses it is torn at the boundary, errors,
	// and arms a sticky write failure — a power cut at an exact byte
	// offset followed by a dead disk.
	budget struct {
		armed     bool
		remaining int64
		err       error
	}
}

// NewFault wraps base with no rules armed: every operation passes
// through until a Fail*/Partial*/Limit* call scripts a failure.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func NewFault(base FS) *Fault {
	return &Fault{base: base, nth: make(map[Op]map[int]error)}
}

// Match restricts every rule and counter to paths the predicate accepts.
// Renames match on either path.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) Match(pred func(path string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.match = pred
}

// FailOp makes every subsequent matching op of this class fail with err —
// a persistently dead disk. ClearOp re-arms it.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) FailOp(op Op, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sticky[op] = err
}

// ClearOp removes a sticky FailOp failure.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) ClearOp(op Op) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sticky[op] = nil
}

// FailNth makes the n-th matching op of this class (0-based, counted from
// the Fault's construction or last Reset) fail with err.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) FailNth(op Op, n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.nth[op]
	if m == nil {
		m = make(map[int]error)
		f.nth[op] = m
	}
	m[n] = err
}

// PartialWriteNth tears the n-th matching write: only the first keep
// bytes reach the file, and the write returns err.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) PartialWriteNth(n, keep int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.partial.armed, f.partial.n, f.partial.keep, f.partial.err = true, n, keep, err
}

// LimitWriteBytes gives matching writes a cumulative byte budget: the
// write that crosses it is torn at the exact boundary and returns err,
// and every later write fails with err too — a power cut at byte offset
// total. Reset or ClearOp(OpWrite) heals the disk.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) LimitWriteBytes(total int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget.armed, f.budget.remaining, f.budget.err = true, total, err
}

// Reset drops every rule and zeroes the counters; the wrapped FS is
// healthy again.
func (f *Fault) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts = [opCount]int{}
	f.sticky = [opCount]error{}
	f.nth = make(map[Op]map[int]error)
	f.partial.armed = false
	f.budget.armed = false
}

// Count reports how many matching operations of this class have run.
//
//distlint:unreachable-ok test helper: the vfs, wal and service fault-injection tests
func (f *Fault) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

func (f *Fault) matchesLocked(path string) bool {
	return f.match == nil || f.match(path)
}

// gate counts one matching op and returns the scripted failure, if any.
func (f *Fault) gate(op Op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(path) {
		return nil
	}
	idx := f.counts[op]
	f.counts[op]++
	if err := f.sticky[op]; err != nil {
		return err
	}
	if m := f.nth[op]; m != nil {
		if err, ok := m[idx]; ok {
			delete(m, idx)
			return err
		}
	}
	return nil
}

// writeGate counts one matching write of n bytes and returns how many of
// them may reach the file plus the scripted failure, if any.
func (f *Fault) writeGate(path string, n int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.matchesLocked(path) {
		return n, nil
	}
	idx := f.counts[OpWrite]
	f.counts[OpWrite]++
	if err := f.sticky[OpWrite]; err != nil {
		return 0, err
	}
	if m := f.nth[OpWrite]; m != nil {
		if err, ok := m[idx]; ok {
			delete(m, idx)
			return 0, err
		}
	}
	if f.partial.armed && idx == f.partial.n {
		f.partial.armed = false
		return min(f.partial.keep, n), f.partial.err
	}
	if f.budget.armed {
		if f.budget.remaining >= int64(n) {
			f.budget.remaining -= int64(n)
			return n, nil
		}
		keep := int(f.budget.remaining)
		f.budget.remaining = 0
		f.budget.armed = false
		f.sticky[OpWrite] = f.budget.err
		return keep, f.budget.err
	}
	return n, nil
}

func (f *Fault) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := f.gate(OpOpenFile, name); err != nil {
		return nil, err
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, f: f, name: name}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	matches := f.matchesLocked(oldpath) || f.matchesLocked(newpath)
	f.mu.Unlock()
	if matches {
		if err := f.gate(OpRename, oldpath); err != nil {
			return err
		}
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error {
	if err := f.gate(OpRemove, name); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.gate(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f *Fault) Stat(name string) (fs.FileInfo, error) {
	if err := f.gate(OpStat, name); err != nil {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *Fault) MkdirAll(path string, perm fs.FileMode) error {
	if err := f.gate(OpMkdirAll, path); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f *Fault) SyncDir(name string) error {
	if err := f.gate(OpSyncDir, name); err != nil {
		return err
	}
	return f.base.SyncDir(name)
}

// faultFile routes per-file operations back through the Fault's gates.
type faultFile struct {
	File
	f    *Fault
	name string
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.f.gate(OpRead, ff.name); err != nil {
		return 0, err
	}
	return ff.File.Read(p)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	allow, injected := ff.f.writeGate(ff.name, len(p))
	if injected == nil {
		return ff.File.Write(p)
	}
	n := 0
	if allow > 0 {
		var err error
		n, err = ff.File.Write(p[:allow])
		if err != nil {
			return n, err
		}
	}
	return n, injected
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := ff.f.gate(OpSeek, ff.name); err != nil {
		return 0, err
	}
	return ff.File.Seek(offset, whence)
}

func (ff *faultFile) Sync() error {
	if err := ff.f.gate(OpSync, ff.name); err != nil {
		return err
	}
	return ff.File.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.f.gate(OpTruncate, ff.name); err != nil {
		return err
	}
	return ff.File.Truncate(size)
}

func (ff *faultFile) Close() error {
	if err := ff.f.gate(OpClose, ff.name); err != nil {
		ff.File.Close() // release the descriptor even when injecting
		return err
	}
	return ff.File.Close()
}
