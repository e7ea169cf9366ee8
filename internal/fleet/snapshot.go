package fleet

import (
	"errors"
	"fmt"
	"log"
	"time"

	"behaviot/internal/backoff"
	"behaviot/internal/core"
	"behaviot/internal/modelstore"
	"behaviot/internal/snapio"
	"behaviot/internal/stream"
)

// tenantSnapVersion guards the tenant.snap wire format: ingest
// counters, recent-event rings, and the event-log high-water mark.
const tenantSnapVersion = 1

// Checkpoint writes one generation into the tenant's namespaced store:
// monitor streaming state (timer anchors included) and tenant state,
// i.e. everything the home mutates — a few KB, since the shared trained
// model is read-only and never captured. Both are taken together under
// the shard lock, between two ingest batches, so the counters, the
// monitor and the event-log mark describe the same records, and
// `received` is the cursor a replaying source fast-forwards to on
// resume. Failures are never fatal — a full disk
// must not kill monitoring — but they are no longer silent either:
// each failure bumps the consecutive-failure streak and the cumulative
// counter, degrades the tenant, and schedules a backoff-paced retry
// that the shard housekeeper picks up; the first success clears the
// streak and restores health. Checkpointing is also a supervision
// boundary: a panic while marshaling quarantines the tenant.
func (t *Tenant) Checkpoint() {
	if t.store == nil {
		return
	}
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	defer t.catchPanic("checkpoint")
	// Only the in-memory capture needs the shard lock; the log sync
	// and the slow store write run without it. Released by defer: a
	// marshal panic unwinds into catchPanic above and must not leave
	// shardMu held — that would deadlock every neighbor on the shard.
	var monSnap, state []byte
	func() {
		t.shardMu.Lock()
		defer t.shardMu.Unlock()
		monSnap = t.monitor.MarshalState()
		state = t.marshalState()
	}()
	t.syncEventLog()
	gen, err := t.store.Write(t.fingerprint, map[string][]byte{
		modelstore.FileMonitor: monSnap,
		modelstore.FileTenant:  state,
	})
	if err != nil {
		failures := t.ckptFailures.Add(1)
		t.ckptFailuresTotal.Add(1)
		delay := backoff.Policy{}.Delay(int(failures), backoff.Seed(t.ID))
		t.ckptRetryAtUnix.Store(time.Now().Add(delay).UnixNano())
		log.Printf("fleet: tenant %s checkpoint failed (attempt %d, retry in %v): %v",
			t.ID, failures, delay.Round(time.Millisecond), err)
		t.reevaluateHealth("checkpoint failure")
		return
	}
	t.ckptFailures.Store(0)
	t.ckptRetryAtUnix.Store(0)
	t.storeGen.Store(int64(gen))
	t.lastCkptUnix.Store(time.Now().UnixNano())
	t.checkpointsTotal.Add(1)
	t.reevaluateHealth("checkpoint landed")
}

// marshalState serializes everything outside the monitor that a
// restored tenant needs: ingest counters, the recent-event rings, and
// the event-log high-water mark. The encoding is deterministic: two
// tenants that consumed identical streams marshal identical bytes.
// Caller holds shardMu, so counters and mark agree with the monitor
// state captured beside them (buffered log lines are written out first
// so the mark covers them), and syncs the log before storing the result.
func (t *Tenant) marshalState() []byte {
	var w snapio.Writer
	w.U8(tenantSnapVersion)
	w.I64(t.received.Load())
	w.I64(t.fed.Load())
	w.I64(t.parseErrors.Load())
	for i := range t.parseByClass {
		w.I64(t.parseByClass[i].Load())
	}

	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	t.flushEventLogLocked()
	w.I64(t.eventLogBytes)
	w.Uint(uint64(len(t.events)))
	for _, e := range t.events {
		w.Int(int(e.Class))
		w.String(e.Device)
		w.String(e.Label)
		w.Time(e.Time)
		w.F64(e.Confidence)
	}
	w.Uint(uint64(len(t.deviations)))
	for _, d := range t.deviations {
		w.U8(uint8(d.Kind))
		w.String(d.Device)
		w.String(d.Detail)
		w.Time(d.Time)
		w.F64(d.Score)
	}
	return w.Bytes()
}

// syncEventLog makes every written event-log byte durable. It runs
// outside the shard lock (an fsync must not stall the shard): covering
// more than the captured mark is harmless, resume truncates to the mark.
func (t *Tenant) syncEventLog() {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	if t.eventLog != nil {
		if err := t.eventLog.Sync(); err != nil {
			log.Printf("fleet: tenant %s event log sync: %v", t.ID, err)
		}
	}
}

// restoreState is the inverse of marshalState. It runs in newTenant,
// before the tenant is reachable (no concurrent goroutines), so the
// atomics are plain stores.
func (t *Tenant) restoreState(data []byte) error {
	r := snapio.NewReader(data)
	if v := r.U8(); v != tenantSnapVersion && r.Err() == nil {
		return fmt.Errorf("tenant snapshot version %d (want %d)", v, tenantSnapVersion)
	}
	received := r.I64()
	fed := r.I64()
	parseErrors := r.I64()
	var byClass [len(parseClasses)]int64
	for i := range byClass {
		byClass[i] = r.I64()
	}
	eventLogBytes := r.I64()

	var events []stream.Event
	n := r.Length(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		events = append(events, stream.Event{
			Class:  core.EventClass(r.Int()),
			Device: r.String(),
			Label:  r.String(),
			Time:   r.Time(),
		})
		events[len(events)-1].Confidence = r.F64()
	}
	var deviations []stream.Deviation
	n = r.Length(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		deviations = append(deviations, stream.Deviation{
			Kind:   core.DeviationKind(r.U8()),
			Device: r.String(),
			Detail: r.String(),
			Time:   r.Time(),
		})
		deviations[len(deviations)-1].Score = r.F64()
	}
	if err := r.Err(); err != nil {
		return err
	}

	t.received.Store(received)
	t.fed.Store(fed)
	t.parseErrors.Store(parseErrors)
	for i := range byClass {
		t.parseByClass[i].Store(byClass[i])
	}
	t.ringMu.Lock()
	t.eventLogBytes = eventLogBytes
	t.events = events
	t.deviations = deviations
	t.ringMu.Unlock()
	return nil
}

// tryRestore attempts hot recovery from the tenant's store: load the
// newest intact generation matching the fleet fingerprint and restore
// streaming + tenant state over the daemon's shared pipeline. Any
// failure falls back to a fresh monitor — resume is an
// optimization, never a correctness requirement — but real failures
// (anything other than a cold-start empty store) are counted and
// surfaced: noteResumeFallback bumps the per-tenant counter that
// /metrics and /status export and stashes the reason for the event
// log. Callers gate on the resume decision (fleet-wide Resume for Add,
// always for Restart).
func (t *Tenant) tryRestore(scfg stream.Config) bool {
	if t.store == nil {
		return false
	}
	snap, err := t.store.Load(t.fingerprint)
	if err != nil {
		if !errors.Is(err, modelstore.ErrNoSnapshot) {
			t.noteResumeFallback(fmt.Sprintf("load: %v", err))
		}
		return false
	}
	m := stream.NewMonitor(t.d.pipe, t.d.cfg.AssemblerCfg, scfg)
	if err := m.UnmarshalState(snap.Files[modelstore.FileMonitor]); err != nil {
		t.noteResumeFallback(fmt.Sprintf("monitor snapshot: %v", err))
		return false
	}
	if err := t.restoreState(snap.Files[modelstore.FileTenant]); err != nil {
		t.noteResumeFallback(fmt.Sprintf("tenant snapshot: %v", err))
		return false
	}
	t.monitor = m
	t.storeGen.Store(int64(snap.Generation))
	return true
}

// noteResumeFallback records one resume-that-started-fresh: counter
// for /metrics and /status, stashed reason for the typed event-log
// line newTenant appends once the log opens, and a process log line.
// A cold start (ErrNoSnapshot) is not a fallback and never lands here.
// Runs in newTenant before the tenant has any concurrency.
func (t *Tenant) noteResumeFallback(reason string) {
	t.resumeFallbacks.Add(1)
	t.resumeFallbackReason = reason
	log.Printf("fleet: tenant %s resume fallback: %s; starting fresh", t.ID, reason)
}
