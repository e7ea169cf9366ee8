// Package faultfs is a deterministic, seeded storage-fault injector: a
// filesystem abstraction (FS/File) with a passthrough OS implementation
// and an Injector wrapper that makes writes, syncs, renames, and
// directory operations fail on command — the ways real checkpoint
// storage goes wrong at fleet scale (ENOSPC, flaky NFS syncs, torn
// writes from power loss mid-flush).
//
// It mirrors internal/chaos one layer down the stack: where chaos
// damages the *capture* a pipeline ingests, faultfs damages the
// *store* a pipeline checkpoints into, so checkpoint failure paths
// (retry, backoff, degraded health, generation fallback) become
// drivable in tests and soaks rather than theoretical. The idiom is
// the same operator-config one: a Config of knobs where every zero
// value disables its fault (the zero Config is the identity), each
// knob materializing one composable Rule, and all randomness drawn
// from seeded state so a run is a pure function of (operations, seed,
// config).
//
// internal/modelstore threads an FS under every store
// (modelstore.Options.FS), which is how the fleet's fault-soak gate
// injects checkpoint failures into individual tenants without
// touching any real disk behavior.
package faultfs

import (
	"errors"
	"io/fs"
	"os"
	"sync"
)

// FS is the slice of filesystem the model store needs. OS implements
// it directly over package os; Injector wraps any FS with faults.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Mkdir(path string, perm os.FileMode) error
	ReadDir(path string) ([]os.DirEntry, error)
	ReadFile(path string) ([]byte, error)
	Rename(oldpath, newpath string) error
	RemoveAll(path string) error
	// OpenFile opens for writing (the store's staged-file path).
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// Open opens read-only (the store opens directories to fsync them).
	Open(path string) (File, error)
}

// File is the open-file slice the store uses: sequential writes, an
// fsync, and close.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the passthrough FS over the real filesystem.
type OS struct{}

func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) Mkdir(path string, perm os.FileMode) error    { return os.Mkdir(path, perm) }
func (OS) ReadDir(path string) ([]os.DirEntry, error)   { return os.ReadDir(path) }
func (OS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OS) Open(path string) (File, error)               { return os.Open(path) }
func (OS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// OpKind names one injectable operation class.
type OpKind int

const (
	OpWrite OpKind = iota
	OpSync
	OpRename
	OpMkdir
	OpRemove
	OpOpen
	OpRead
	numOpKinds
)

var opNames = [...]string{"write", "sync", "rename", "mkdir", "remove", "open", "read"}

func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opNames) {
		return "unknown"
	}
	return opNames[k]
}

// Event describes one filesystem operation about to run; rules match
// against it.
type Event struct {
	Kind OpKind
	// Path is the operation's target (the destination for renames).
	Path string
	// Seq is the 1-based sequence number of this operation among all
	// operations of its Kind seen by the injector.
	Seq int64
	// Bytes is the payload size for OpWrite (0 otherwise).
	Bytes int
	// TotalBytes is the cumulative bytes successfully written before
	// this operation (the ENOSPC accounting basis).
	TotalBytes int64
}

// Fault is a rule's verdict: the error to inject, and for writes how
// much of the payload to persist anyway (a torn write). KeepBytes < 0
// persists nothing.
type Fault struct {
	Err       error
	KeepBytes int
}

// Rule inspects an operation and decides whether to fault it. Rules
// must be pure functions of the Event (plus their own configuration),
// so a sequence of operations faults identically on every run.
type Rule interface {
	// Name identifies the rule in String() renderings and stats.
	Name() string
	// Check returns nil to let the operation through.
	Check(ev Event) *Fault
}

// ErrInjected is wrapped by every injected error, so tests and
// callers can tell a synthetic fault from a real filesystem failure.
var ErrInjected = errors.New("faultfs: injected fault")

// injectedErr builds the error an injector returns: it unwraps to
// both ErrInjected and the underlying cause (e.g. syscall.ENOSPC), so
// errors.Is works against either.
type injectedErr struct {
	rule  string
	ev    Event
	cause error
}

func (e *injectedErr) Error() string {
	return "faultfs: injected " + e.ev.Kind.String() + " fault (" + e.rule + ") on " + e.ev.Path +
		": " + e.cause.Error()
}

func (e *injectedErr) Unwrap() []error { return []error{ErrInjected, e.cause} }

// Stats counts what an injector has seen and done.
type Stats struct {
	// Ops counts operations per kind (attempted, faulted or not).
	Ops [numOpKinds]int64
	// Faults counts injected faults per kind.
	Faults [numOpKinds]int64
	// BytesWritten is the cumulative successfully-written byte count.
	BytesWritten int64
}

// Injector wraps an inner FS and applies rules to every operation.
// Safe for concurrent use (the fleet's shard housekeepers checkpoint
// tenants in parallel through one injector).
type Injector struct {
	inner FS

	mu    sync.Mutex
	rules []Rule
	seq   [numOpKinds]int64
	stats Stats
}

// New wraps inner with the given rules. A nil inner means the real
// filesystem (OS{}).
func New(inner FS, rules ...Rule) *Injector {
	if inner == nil {
		inner = OS{}
	}
	return &Injector{inner: inner, rules: rules}
}

// SetRules atomically replaces the rule set — how a soak clears a
// transient fault ("the disk came back") mid-run.
func (in *Injector) SetRules(rules ...Rule) {
	in.mu.Lock()
	in.rules = rules
	in.mu.Unlock()
}

// Stats returns a snapshot of the injector's accounting.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// check sequences one operation and consults the rules. It returns the
// fault to apply, or nil.
func (in *Injector) check(kind OpKind, path string, bytes int) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq[kind]++
	in.stats.Ops[kind]++
	ev := Event{
		Kind: kind, Path: path, Seq: in.seq[kind],
		Bytes: bytes, TotalBytes: in.stats.BytesWritten,
	}
	for _, r := range in.rules {
		if f := r.Check(ev); f != nil {
			in.stats.Faults[kind]++
			return f
		}
	}
	return nil
}

func (in *Injector) countWritten(n int) {
	in.mu.Lock()
	in.stats.BytesWritten += int64(n)
	in.mu.Unlock()
}

func (in *Injector) MkdirAll(path string, perm os.FileMode) error {
	if f := in.check(OpMkdir, path, 0); f != nil {
		return f.Err
	}
	return in.inner.MkdirAll(path, perm)
}

func (in *Injector) Mkdir(path string, perm os.FileMode) error {
	if f := in.check(OpMkdir, path, 0); f != nil {
		return f.Err
	}
	return in.inner.Mkdir(path, perm)
}

func (in *Injector) ReadDir(path string) ([]os.DirEntry, error) {
	if f := in.check(OpRead, path, 0); f != nil {
		return nil, f.Err
	}
	return in.inner.ReadDir(path)
}

func (in *Injector) ReadFile(path string) ([]byte, error) {
	if f := in.check(OpRead, path, 0); f != nil {
		return nil, f.Err
	}
	return in.inner.ReadFile(path)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	if f := in.check(OpRename, newpath, 0); f != nil {
		return f.Err
	}
	return in.inner.Rename(oldpath, newpath)
}

func (in *Injector) RemoveAll(path string) error {
	if f := in.check(OpRemove, path, 0); f != nil {
		return f.Err
	}
	return in.inner.RemoveAll(path)
}

func (in *Injector) Open(path string) (File, error) {
	if f := in.check(OpOpen, path, 0); f != nil {
		return nil, f.Err
	}
	return in.inner.Open(path)
}

func (in *Injector) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if f := in.check(OpOpen, path, 0); f != nil {
		return nil, f.Err
	}
	f, err := in.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: in, f: f, path: path}, nil
}

// faultFile intercepts the write/sync path of one open file.
type faultFile struct {
	in   *Injector
	f    File
	path string
}

// Write consults the rules per call. A torn-write fault persists only
// the rule's KeepBytes prefix through the real file — exactly what a
// power cut mid-write leaves behind — and still reports the error.
func (ff *faultFile) Write(p []byte) (int, error) {
	if f := ff.in.check(OpWrite, ff.path, len(p)); f != nil {
		n := 0
		if f.KeepBytes > 0 {
			keep := f.KeepBytes
			if keep > len(p) {
				keep = len(p)
			}
			n, _ = ff.f.Write(p[:keep]) // the injected fault is the error being reported; the torn prefix is best-effort by design
			ff.in.countWritten(n)
		}
		return n, f.Err
	}
	n, err := ff.f.Write(p)
	ff.in.countWritten(n)
	return n, err
}

func (ff *faultFile) Sync() error {
	if f := ff.in.check(OpSync, ff.path, 0); f != nil {
		return f.Err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// unsupported guards against fs.ErrInvalid-style misuse in tests.
var _ = fs.ErrInvalid
