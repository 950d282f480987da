package faultfs

import (
	"fmt"
	"os"
	"strings"
	"sync"
)

// Op names an FS or File operation for fault matching.
type Op string

const (
	OpCreate   Op = "create"
	OpOpen     Op = "open"
	OpOpenFile Op = "openfile"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpTruncate Op = "truncate"
	OpSyncDir  Op = "syncdir"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
)

// Fault is one injection rule. A rule matches when the operation equals
// Op, the path contains PathContains (empty matches everything), and
// After more matching calls have passed first (After=0 fires on the
// first match). Once a rule fires it is spent unless Repeat is set.
//
// What firing does depends on the fields:
//   - Hold != nil: the operation first blocks until the channel is
//     closed, then goes on as the other fields say — a slow disk a test
//     releases when it chooses, so "what happens while an fsync is in
//     flight" needs no sleeps.
//   - Err != nil: the operation fails with Err. For OpWrite with
//     Short > 0, the first Short bytes are written before the error —
//     a torn write.
//   - Err == nil and Short > 0 on OpWrite: the write persists only the
//     first Short bytes but REPORTS full success — a lying kernel, the
//     nastiest torn-write variant.
//   - Neither: the operation proceeds normally; the rule only delays
//     (Hold) or counts (Fired) it.
//
// Faults on OpWrite/OpSync/OpClose apply to files whose path matched at
// open time.
type Fault struct {
	Op           Op
	PathContains string
	After        int
	Err          error
	Short        int
	Repeat       bool
	Hold         chan struct{}
}

// fire applies a matched rule's Hold and returns its Err.
func (r *Fault) fire() error {
	if r.Hold != nil {
		<-r.Hold
	}
	return r.Err
}

// Faulty wraps an FS and injects faults per a rule list. Safe for
// concurrent use. The zero value is not usable; use Wrap.
type Faulty struct {
	inner FS

	mu    sync.Mutex
	rules []*Fault
	log   []string   // fired-rule descriptions, for test assertions
	fired *sync.Cond // signalled on every append to log
}

// Wrap returns a Faulty over inner with no rules (pure passthrough
// until Inject is called).
func Wrap(inner FS) *Faulty {
	f := &Faulty{inner: inner}
	f.fired = sync.NewCond(&f.mu)
	return f
}

// Inject adds a rule. The same *Fault can be inspected afterwards; a
// spent rule is removed from the active set.
func (f *Faulty) Inject(rule Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := rule
	f.rules = append(f.rules, &r)
}

// Clear drops all rules.
func (f *Faulty) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Fired returns descriptions of every rule that has fired, in order.
func (f *Faulty) Fired() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.log))
	copy(out, f.log)
	return out
}

// AwaitFired blocks until at least n rules have fired. A rule counts as
// fired before its Hold is waited on, so this is how a test learns that
// an operation has reached the point where it is being held.
func (f *Faulty) AwaitFired(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.log) < n {
		f.fired.Wait()
	}
}

// match finds the first live rule for (op, path), decrements its
// countdown, and if it fires returns it (removing it unless Repeat).
func (f *Faulty) match(op Op, path string) *Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, r := range f.rules {
		if r.Op != op {
			continue
		}
		if r.PathContains != "" && !strings.Contains(path, r.PathContains) {
			continue
		}
		if r.After > 0 {
			r.After--
			return nil
		}
		f.log = append(f.log, fmt.Sprintf("%s %s", op, path))
		f.fired.Broadcast()
		if !r.Repeat {
			f.rules = append(f.rules[:i], f.rules[i+1:]...)
		}
		return r
	}
	return nil
}

// fault runs the rule match fires for (op, path), if any: it waits out
// the rule's Hold and returns its Err.
func (f *Faulty) fault(op Op, path string) error {
	if r := f.match(op, path); r != nil {
		return r.fire()
	}
	return nil
}

func (f *Faulty) Create(name string) (File, error) {
	if err := f.fault(OpCreate, name); err != nil {
		return nil, err
	}
	fl, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: fl, fs: f, path: name}, nil
}

func (f *Faulty) Open(name string) (File, error) {
	if err := f.fault(OpOpen, name); err != nil {
		return nil, err
	}
	fl, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: fl, fs: f, path: name}, nil
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := f.fault(OpOpenFile, name); err != nil {
		return nil, err
	}
	fl, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: fl, fs: f, path: name}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	if err := f.fault(OpRename, newpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Faulty) Remove(name string) error {
	if err := f.fault(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *Faulty) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *Faulty) ReadDir(name string) ([]os.DirEntry, error) { return f.inner.ReadDir(name) }
func (f *Faulty) Stat(name string) (os.FileInfo, error)      { return f.inner.Stat(name) }

func (f *Faulty) Truncate(name string, size int64) error {
	if err := f.fault(OpTruncate, name); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

func (f *Faulty) SyncDir(dir string) error {
	if err := f.fault(OpSyncDir, dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultyFile applies write/sync/close rules registered on the parent.
type faultyFile struct {
	File
	fs   *Faulty
	path string
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	r := ff.fs.match(OpWrite, ff.path)
	if r == nil {
		return ff.File.Write(p)
	}
	ferr := r.fire()
	if ferr == nil && r.Short <= 0 {
		return ff.File.Write(p)
	}
	short := r.Short
	if short > len(p) {
		short = len(p)
	}
	n := 0
	if short > 0 {
		var err error
		n, err = ff.File.Write(p[:short])
		if err != nil {
			return n, err
		}
	}
	if ferr != nil {
		return n, ferr
	}
	// Short write reported as success: the caller thinks len(p) bytes
	// landed but only n did.
	return len(p), nil
}

func (ff *faultyFile) Sync() error {
	if err := ff.fs.fault(OpSync, ff.path); err != nil {
		return err
	}
	return ff.File.Sync()
}

func (ff *faultyFile) Close() error {
	if err := ff.fs.fault(OpClose, ff.path); err != nil {
		_ = ff.File.Close()
		return err
	}
	return ff.File.Close()
}

// FlipByte XORs the byte at offset in the named file with mask,
// simulating media corruption. It bypasses any FS wrapper and operates
// on the real file.
func FlipByte(path string, offset int64, mask byte) error {
	fl, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer func() { _ = fl.Close() }()
	var b [1]byte
	if _, err := fl.ReadAt(b[:], offset); err != nil {
		return err
	}
	b[0] ^= mask
	_, err = fl.WriteAt(b[:], offset)
	return err
}
