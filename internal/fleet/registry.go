package fleet

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"strings"

	"behaviot/internal/modelstore"
)

// Registry errors surfaced by the control plane.
var (
	ErrTenantExists   = errors.New("fleet: tenant already registered")
	ErrTenantUnknown  = errors.New("fleet: unknown tenant")
	ErrUnauthorized   = errors.New("fleet: bad tenant credentials")
	ErrBadTenantID    = errors.New("fleet: invalid tenant id")
	ErrTokenRequired  = errors.New("fleet: ingest token must not be empty")
	ErrCrashLoop      = errors.New("fleet: tenant exceeded crash-loop budget")
	ErrTenantBusy     = errors.New("fleet: tenant busy")
	ErrOneEventLog    = errors.New("fleet: the daemon's single event log file already has its tenant")
	errTokenHasSpace  = errors.New("fleet: ingest token must not contain spaces or newlines")
	errTenantFileForm = errors.New("fleet: tenants file line is not `id,token`")
)

// Add registers a new tenant under the given ingest token and places
// it on its ring-assigned shard, live — no restart, no disturbance to
// other tenants (pinned by the control-plane tests). The returned
// tenant is already accepting ingest.
func (d *Daemon) Add(id, token string) (*Tenant, error) {
	if !modelstore.ValidTenantID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	if token == "" {
		return nil, ErrTokenRequired
	}
	if strings.ContainsAny(token, " \t\r\n") {
		return nil, errTokenHasSpace
	}

	// Reserve the ID before constructing anything: newTenant touches
	// the tenant's on-disk state (store open, event-log truncate), so
	// a duplicate Add must be rejected while the ID is still just a
	// map key. Building first and checking after would truncate the
	// live tenant's event log out from under its open handle and race
	// a second checkpoint writer against the live tenant's own. The
	// reservation also excludes a Remove still draining this ID.
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	_, live := d.tenants[id]
	_, busy := d.pending[id]
	if live || busy {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, id)
	}
	if d.cfg.EventLogFile != "" && len(d.tenants)+len(d.pending) > 0 {
		d.mu.Unlock()
		return nil, ErrOneEventLog
	}
	d.pending[id] = struct{}{}
	d.mu.Unlock()

	// Build outside the registry lock: construction may read a
	// checkpoint and touches disk, and Add must not stall
	// Authenticate/Get on the ingest path. The reservation makes the
	// ID — and its store and event-log paths — exclusively ours.
	shardIdx := d.ring.Lookup(id)
	t, err := d.newTenant(id, token, shardIdx, d.cfg.Resume)

	d.mu.Lock()
	delete(d.pending, id)
	if err != nil {
		d.mu.Unlock()
		return nil, err
	}
	if d.closed {
		// Close ran while we were building and never saw this tenant;
		// discard it without a checkpoint (it observed no traffic, and
		// a fresh-state generation could clobber resumable state).
		d.mu.Unlock()
		t.discard()
		return nil, ErrClosed
	}
	d.tenants[id] = t
	d.mu.Unlock()
	return t, nil
}

// Remove finalizes and deletes a tenant: ingest sources are rejected
// from this point, the monitor is flushed, a final checkpoint lands,
// and the event log is closed. Other tenants are
// untouched (their packets keep flowing throughout — pinned by the
// control-plane tests). The tenant's store directory is left on disk
// so a later Add with Resume picks up where it left off.
func (d *Daemon) Remove(id string) error {
	d.mu.Lock()
	t, ok := d.tenants[id]
	if ok {
		delete(d.tenants, id)
		// Hold the ID reserved until the drain completes: a concurrent
		// Add of the same ID would otherwise truncate the event log and
		// open the store while close is still writing through both.
		d.pending[id] = struct{}{}
	}
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrTenantUnknown, id)
	}
	t.close()
	d.mu.Lock()
	delete(d.pending, id)
	d.mu.Unlock()
	return nil
}

// Restart tears the tenant down and rebuilds it from its last durable
// checkpoint — the recovery path for quarantined tenants (and a
// harmless state reload for healthy ones). The old incarnation is
// drained and closed first: quarantined tenants skip finalization (no
// checkpoint over possibly-poisoned state), healthy ones land a final
// checkpoint, so either way the rebuilt tenant resumes from the newest
// durable generation. The cumulative panic count carries across
// incarnations; once it exceeds the crash-loop budget, Restart refuses
// with ErrCrashLoop and the tenant stays quarantined — an operator
// problem, not a restart-until-the-heat-death loop. If the rebuild
// itself fails, the closed old incarnation is re-registered as a
// quarantined placeholder: the tenant never vanishes from the
// registry, and Restart can be retried once the fault clears.
func (d *Daemon) Restart(id string) (*Tenant, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	old, ok := d.tenants[id]
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantUnknown, id)
	}
	if _, busy := d.pending[id]; busy {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrTenantBusy, id)
	}
	if old.panics.Load() > int64(d.cfg.CrashLoopBudget) {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q (%d panics, budget %d)",
			ErrCrashLoop, id, old.panics.Load(), d.cfg.CrashLoopBudget)
	}
	// Hold the ID reserved while the old incarnation drains and the
	// new one is built: ingest and a concurrent Add both stay out.
	delete(d.tenants, id)
	d.pending[id] = struct{}{}
	d.mu.Unlock()

	old.close()

	t, err := d.newTenant(id, old.token, old.Shard, true)
	if err == nil {
		// Carry supervision history into the new incarnation: the
		// crash-loop budget is about the tenant, not the process object.
		t.panics.Store(old.panics.Load())
		t.ckptFailuresTotal.Store(old.ckptFailuresTotal.Load())
		t.restarts.Store(old.restarts.Load() + 1)
	}

	d.mu.Lock()
	delete(d.pending, id)
	if err != nil {
		// The rebuild failed (store open, event-log I/O, ... — often the
		// same fault that caused the quarantine). Do not let the tenant
		// vanish from the registry: re-register the closed old
		// incarnation as a quarantined placeholder, so it stays visible
		// on /tenants and /healthz, its supervision history (panics,
		// restarts) keeps enforcing the crash-loop budget, and a later
		// Restart can retry once the operator clears the fault
		// (old.close is idempotent, so retrying is safe).
		if !d.closed {
			old.forceQuarantine(fmt.Sprintf("restart failed: %v", err))
			d.tenants[id] = old
		}
		d.mu.Unlock()
		return nil, err
	}
	if d.closed {
		d.mu.Unlock()
		t.discard()
		return nil, ErrClosed
	}
	d.tenants[id] = t
	d.mu.Unlock()
	return t, nil
}

// Get returns a tenant by ID, or nil.
func (d *Daemon) Get(id string) *Tenant {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tenants[id]
}

// Authenticate resolves ingest credentials to a tenant. Tokens are
// compared as fixed-length sha256 digests so the comparison cost never
// depends on the stored token's length, and the unknown-tenant path
// burns the same hash-and-compare work as the known-tenant path —
// unknown tenant and bad token are deliberately the same error, and
// indistinguishable by timing, so a probe cannot enumerate tenant IDs.
func (d *Daemon) Authenticate(id, token string) (*Tenant, error) {
	d.mu.RLock()
	t := d.tenants[id]
	d.mu.RUnlock()
	supplied := sha256.Sum256([]byte(token))
	if t == nil {
		decoy := sha256.Sum256(supplied[:])
		subtle.ConstantTimeCompare(supplied[:], decoy[:])
		return nil, ErrUnauthorized
	}
	stored := sha256.Sum256([]byte(t.token))
	if subtle.ConstantTimeCompare(supplied[:], stored[:]) != 1 {
		return nil, ErrUnauthorized
	}
	return t, nil
}

// ParseTenantsFile reads the `id,token` lines of a tenants file (the
// behaviotd -fleet-tenants format). Blank lines and #-comments are
// skipped. IDs must satisfy modelstore.ValidTenantID.
func ParseTenantsFile(r io.Reader) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, token, ok := strings.Cut(line, ",")
		id, token = strings.TrimSpace(id), strings.TrimSpace(token)
		if !ok || id == "" || token == "" {
			return nil, fmt.Errorf("%w (line %d)", errTenantFileForm, lineNo)
		}
		if !modelstore.ValidTenantID(id) {
			return nil, fmt.Errorf("%w: %q (line %d)", ErrBadTenantID, id, lineNo)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("fleet: duplicate tenant %q (line %d)", id, lineNo)
		}
		out[id] = token
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
