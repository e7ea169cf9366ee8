package fleet

import (
	"fmt"
	"log"
	"runtime/debug"
	"time"
)

// Health is a tenant's supervision state. The FSM:
//
//	Healthy ──checkpoint failure──▶ Degraded
//	Degraded ──checkpoint lands──▶ Healthy
//	any ──panic in feed / checkpoint / finalize──▶ Quarantined
//	Quarantined ──POST /tenants/{id}/restart──▶ Healthy (new incarnation)
//
// Degraded is reversible in place: the shard housekeeper keeps retrying
// the checkpoint with backoff, and the tenant keeps monitoring.
// Quarantined is terminal for the incarnation: the tenant's model state
// may be poisoned by whatever panicked, so it is fenced — ingest
// rejected, housekeeping skipped — until an operator
// restart rebuilds it from its last durable checkpoint.
type Health int32

const (
	Healthy Health = iota
	Degraded
	Quarantined
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// Health returns the tenant's current supervision state.
func (t *Tenant) Health() Health { return Health(t.health.Load()) }

// setHealth transitions the FSM, logging the transition to the
// process log and the tenant's event log. Only faulted tenants ever
// transition, so unaffected tenants' event logs stay byte-identical to
// reference runs (the isolation oracle depends on this). The
// transition is a CAS loop that refuses to leave Quarantined: a
// quarantinePanic landing between a caller's health check and this
// store (connection-goroutine ingest panic racing the housekeeper's
// checkpoint-failure reevaluation) must not be overwritten — that
// would un-fence a tenant whose monitor state may be poisoned. Only
// Restart escapes quarantine, by building a new incarnation.
func (t *Tenant) setHealth(to Health, reason string) {
	for {
		from := Health(t.health.Load())
		if from == to || from == Quarantined {
			return
		}
		if !t.health.CompareAndSwap(int32(from), int32(to)) {
			continue
		}
		log.Printf("fleet: tenant %s health %s -> %s (%s)", t.ID, from, to, reason)
		t.logLine(eventLogLine{
			Type: "health", Time: time.Now().UTC(), Device: t.ID,
			Label: to.String(), Detail: reason,
		})
		return
	}
}

// reevaluateHealth recomputes Healthy/Degraded from the checkpoint
// failure streak. Quarantine is sticky: setHealth refuses to leave it
// (the check here is just a fast path), and only Restart escapes.
func (t *Tenant) reevaluateHealth(reason string) {
	if t.Health() == Quarantined {
		return
	}
	if t.ckptFailures.Load() > 0 {
		t.setHealth(Degraded, reason)
	} else {
		t.setHealth(Healthy, reason)
	}
}

// catchPanic is the deferred guard at the supervision boundaries that
// have no error to return (checkpoint/housekeeping, finalize; Ingest
// recovers inline because it also reports to its caller). It
// converts a panic anywhere in one tenant's pipeline into that
// tenant's quarantine — stack preserved in the tenant's event log —
// while every neighboring tenant keeps running.
func (t *Tenant) catchPanic(where string) {
	if r := recover(); r != nil {
		t.quarantinePanic(where, r)
	}
}

// quarantinePanic records a recovered panic and fences the tenant.
// Must be called from a deferred recover handler so debug.Stack still
// sees the panic origin frames.
func (t *Tenant) quarantinePanic(where string, r any) {
	t.panics.Add(1)
	stack := debug.Stack()
	log.Printf("fleet: tenant %s panic in %s: %v\n%s", t.ID, where, r, stack)
	t.logLine(eventLogLine{
		Type: "panic", Time: time.Now().UTC(), Device: t.ID,
		Kind: where, Detail: fmt.Sprintf("%v", r), Label: string(stack),
	})
	// Not via setHealth: quarantine must stick even if a concurrent
	// reevaluateHealth races it; the panic line above records the cause.
	t.forceQuarantine("panic in " + where)
}

// forceQuarantine fences a tenant: after a recovered panic, or for a
// Restart whose rebuild failed and re-registers the closed old
// incarnation as a quarantined placeholder. Entering Quarantined is
// always legal (it is the sticky terminal state), so a plain Swap
// suffices. Process log only: the panic path has written its own
// event-log line, and the placeholder's event log is closed.
func (t *Tenant) forceQuarantine(reason string) {
	if from := Health(t.health.Swap(int32(Quarantined))); from != Quarantined {
		log.Printf("fleet: tenant %s health %s -> quarantined (%s)", t.ID, from, reason)
	}
}

// checkpointAge is how long ago the last durable checkpoint landed,
// measured from tenant start when none has.
func (t *Tenant) checkpointAge() time.Duration {
	last := t.lastCkptUnix.Load()
	if last == 0 {
		last = t.startUnix
	}
	return time.Since(time.Unix(0, last))
}

// checkpointAgeAlarm reports whether the tenant has gone longer than
// three checkpoint intervals without a durable checkpoint — the
// ROADMAP's checkpoint-age alarm. Only meaningful for stores with
// periodic checkpointing enabled.
func (t *Tenant) checkpointAgeAlarm() bool {
	return t.store != nil && t.d.cfg.CheckpointInterval > 0 &&
		t.checkpointAge() > 3*t.d.cfg.CheckpointInterval
}

// healthCounts tallies the degraded and quarantined tenants among
// tenants (the /healthz and /metrics rollups).
func healthCounts(tenants []*Tenant) (degraded, quarantined int) {
	for _, t := range tenants {
		switch t.Health() {
		case Degraded:
			degraded++
		case Quarantined:
			quarantined++
		}
	}
	return
}
