package faultfs

import (
	"strings"
	"syscall"
)

// ENOSPC is the out-of-space error every space-exhaustion rule
// injects; errors.Is(err, faultfs.ENOSPC) identifies it.
var ENOSPC error = syscall.ENOSPC

// EIO is the generic I/O error injected by rules with no Err set.
var EIO error = syscall.EIO

// FailOp faults operations of one kind by sequence number: every
// operation whose per-kind sequence falls in [Nth, Nth+Count) fails.
// Count <= 0 means exactly one. An optional PathContains narrows the
// rule to paths containing the substring (how a fleet-wide injector
// faults a single tenant's store: PathContains "tenants/home-042/").
// With Tear > 0 and Kind == OpWrite, the faulted write persists a
// Tear-byte prefix before failing — a torn write.
type FailOp struct {
	Kind         OpKind
	Nth          int64
	Count        int64
	PathContains string
	Err          error
	Tear         int
}

func (r FailOp) Name() string { return "fail-" + r.Kind.String() }

func (r FailOp) Check(ev Event) *Fault {
	if ev.Kind != r.Kind || r.Nth <= 0 {
		return nil
	}
	n := r.Count
	if n <= 0 {
		n = 1
	}
	if ev.Seq < r.Nth || ev.Seq >= r.Nth+n {
		return nil
	}
	if r.PathContains != "" && !strings.Contains(ev.Path, r.PathContains) {
		return nil
	}
	err := r.Err
	if err == nil {
		err = EIO
	}
	keep := 0
	if r.Tear > 0 && ev.Kind == OpWrite {
		keep = r.Tear
	}
	return &Fault{
		Err:       &injectedErr{rule: r.Name(), ev: ev, cause: err},
		KeepBytes: keep,
	}
}

// FailMatch faults operations of one kind counted among matching
// paths: the Nth..(Nth+Count-1)th operations whose path contains
// PathContains fail (Count <= 0 means exactly one). Where FailOp's Nth
// indexes the injector-global per-kind sequence — which makes "the
// first delta-payload write" unaddressable when unrelated writes
// interleave — FailMatch keeps a private match counter, advanced under
// the injector's lock, so the rule is still a pure function of the
// operation sequence and a run faults identically every time. Use it
// through a pointer (the counter is state): faultfs.New(fs,
// &faultfs.FailMatch{...}).
type FailMatch struct {
	Kind         OpKind
	Nth          int64
	Count        int64
	PathContains string
	Err          error
	Tear         int

	seen int64
}

func (r *FailMatch) Name() string { return "fail-match-" + r.Kind.String() }

func (r *FailMatch) Check(ev Event) *Fault {
	if ev.Kind != r.Kind || r.Nth <= 0 {
		return nil
	}
	if r.PathContains != "" && !strings.Contains(ev.Path, r.PathContains) {
		return nil
	}
	r.seen++
	n := r.Count
	if n <= 0 {
		n = 1
	}
	if r.seen < r.Nth || r.seen >= r.Nth+n {
		return nil
	}
	err := r.Err
	if err == nil {
		err = EIO
	}
	keep := 0
	if r.Tear > 0 && ev.Kind == OpWrite {
		keep = r.Tear
	}
	return &Fault{
		Err:       &injectedErr{rule: r.Name(), ev: ev, cause: err},
		KeepBytes: keep,
	}
}

// DiskFull fails every write once cumulative successfully-written
// bytes reach AfterBytes, with ENOSPC — and fails the syncs and
// renames on the same paths too, as a truly full filesystem does.
// The partial write that crosses the boundary persists the bytes that
// "fit" (a torn tail), matching real ENOSPC semantics.
type DiskFull struct {
	AfterBytes   int64
	PathContains string
}

func (r DiskFull) Name() string { return "disk-full" }

func (r DiskFull) Check(ev Event) *Fault {
	if r.AfterBytes <= 0 {
		return nil
	}
	if r.PathContains != "" && !strings.Contains(ev.Path, r.PathContains) {
		return nil
	}
	switch ev.Kind {
	case OpWrite:
		if ev.TotalBytes+int64(ev.Bytes) <= r.AfterBytes {
			return nil
		}
		keep := int(r.AfterBytes - ev.TotalBytes)
		if keep < 0 {
			keep = 0
		}
		return &Fault{
			Err:       &injectedErr{rule: r.Name(), ev: ev, cause: ENOSPC},
			KeepBytes: keep,
		}
	case OpSync, OpRename, OpMkdir:
		if ev.TotalBytes < r.AfterBytes {
			return nil
		}
		return &Fault{Err: &injectedErr{rule: r.Name(), ev: ev, cause: ENOSPC}}
	default:
		return nil
	}
}

// Config bundles one knob per fault; zero values disable a fault
// entirely, so the zero Config materializes no rules (the identity —
// the same contract as chaos.Config).
type Config struct {
	// FailWriteNth / FailSyncNth / FailRenameNth fail the Nth operation
	// of that kind (1-based). FailCount widens each into a window of
	// consecutive failures (default 1) — a transient outage that clears.
	FailWriteNth  int64
	FailSyncNth   int64
	FailRenameNth int64
	FailCount     int64
	// TearBytes makes the faulted write persist only this prefix
	// (requires FailWriteNth).
	TearBytes int
	// ENOSPCAfter fails writes (and subsequent syncs/renames) once this
	// many bytes have been written: disk-full after K bytes.
	ENOSPCAfter int64
	// PathContains narrows every configured rule to matching paths.
	PathContains string
	// CountMatches makes the FailNth knobs count only operations whose
	// path matches PathContains (1-based among matches, via FailMatch)
	// instead of the injector-global per-kind sequence. "Tear the
	// first delta-payload write" is CountMatches + PathContains
	// ".delta" + FailWriteNth 1.
	CountMatches bool
}

// failRule materializes one FailNth knob, honoring CountMatches.
func (c Config) failRule(kind OpKind, nth int64, tear int) Rule {
	if c.CountMatches {
		return &FailMatch{
			Kind: kind, Nth: nth, Count: c.FailCount,
			PathContains: c.PathContains, Tear: tear,
		}
	}
	return FailOp{
		Kind: kind, Nth: nth, Count: c.FailCount,
		PathContains: c.PathContains, Tear: tear,
	}
}

// Rules materializes the configured rules. The zero Config returns
// none.
func (c Config) Rules() []Rule {
	var rules []Rule
	if c.FailWriteNth > 0 {
		rules = append(rules, c.failRule(OpWrite, c.FailWriteNth, c.TearBytes))
	}
	if c.FailSyncNth > 0 {
		rules = append(rules, c.failRule(OpSync, c.FailSyncNth, 0))
	}
	if c.FailRenameNth > 0 {
		rules = append(rules, c.failRule(OpRename, c.FailRenameNth, 0))
	}
	if c.ENOSPCAfter > 0 {
		rules = append(rules, DiskFull{AfterBytes: c.ENOSPCAfter, PathContains: c.PathContains})
	}
	return rules
}

// Wrap applies the configured faults over inner (nil inner = the real
// filesystem). A zero Config yields a pure passthrough injector.
func Wrap(inner FS, cfg Config) *Injector {
	return New(inner, cfg.Rules()...)
}
