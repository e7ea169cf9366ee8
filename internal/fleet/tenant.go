package fleet

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/jsonenc"
	"behaviot/internal/modelstore"
	"behaviot/internal/netparse"
	"behaviot/internal/stream"
)

// ringSize bounds each tenant's recent-event and recent-deviation
// buffers.
const ringSize = 256

// parseClasses indexes the per-class parse error counters; the last
// slot collects unclassified errors.
var parseClasses = [...]string{
	netparse.ClassChecksum, netparse.ClassMalformed,
	netparse.ClassTruncated, netparse.ClassUnsupported, "other",
}

// ErrTenantClosed is returned by Ingest once a tenant has been
// removed: ingest sources should stop sending and disconnect.
var ErrTenantClosed = errors.New("fleet: tenant closed")

// ErrTenantQuarantined is returned by Ingest while a tenant is fenced
// after a panic: sources should disconnect and an operator should POST
// /tenants/{id}/restart. Distinct from ErrTenantClosed so the listener
// can tell sources which situation they hit.
var ErrTenantQuarantined = errors.New("fleet: tenant quarantined")

// Tenant is one home's complete monitoring deployment: an online
// monitor, recent-event rings, JSONL event log, and a checkpoint store
// namespaced under the fleet's store root. It owns no goroutine:
// records are ingested on the caller's goroutine (Ingest). Every tenant
// classifies over the daemon's one trained pipeline, which nothing
// writes; what a home mutates (the monitor's state, timer anchors
// included) is its own. Beyond that read-only model, nothing in here is
// shared with any other tenant except the shard lock (a pure
// serialization domain) — the isolation the single≡multi byte-identity
// oracle pins.
type Tenant struct {
	// ID is the tenant's stable identifier (validated by
	// modelstore.ValidTenantID; it names filesystem directories and
	// metric labels).
	ID string
	// Shard is the ring-assigned shard index.
	Shard int

	token string // per-source ingest auth token
	d     *Daemon

	// shardMu is the owning shard's lock. Every monitor access —
	// ingest, checkpoint capture, status sampling — serializes on it,
	// bounding feed concurrency to the shard count. Lock order:
	// shardMu → ringMu → feedHub.mu; ckptMu is taken outside shardMu.
	shardMu *sync.Mutex
	monitor *stream.Monitor
	pkt     netparse.Packet // every record is decoded into this one packet (guarded by shardMu)

	ringMu     sync.Mutex // guards events, deviations, eventLog, eventLogBytes, logBuf
	events     []stream.Event
	deviations []stream.Deviation
	eventLog   *os.File
	// eventLogBytes is the event log's written high-water mark,
	// recorded in checkpoints. logBuf holds an ingest batch's encoded lines until the
	// batch ends (one Write) or a checkpoint reads the mark.
	eventLogBytes int64
	logBuf        []byte

	// Ingest-health counters, advanced under shardMu (atomics only so
	// status readers need no lock). received counts records handed to
	// Ingest (pre-decode); fed counts packets the monitor consumed.
	// received == fed + parseErrors at every record boundary.
	received     atomic.Int64
	fed          atomic.Int64
	parseErrors  atomic.Int64
	parseByClass [len(parseClasses)]atomic.Int64

	// Crash-safe checkpointing into the tenant's namespaced store.
	// ckptMu serializes checkpoints: modelstore writes are not
	// concurrency-safe, and the shard housekeeping worker, Remove, and
	// Close may otherwise overlap.
	store            *modelstore.Store
	fingerprint      string
	ckptMu           sync.Mutex
	storeGen         atomic.Int64
	lastCkptUnix     atomic.Int64
	checkpointsTotal atomic.Int64

	// Resume-fallback accounting: a tenant that was asked to resume
	// but had to start fresh because its store held a broken or
	// unusable snapshot. A cold start (no snapshot at all) is not a
	// fallback. resumeFallbackReason is written in newTenant before
	// the tenant is reachable, so it needs no lock.
	resumeFallbacks      atomic.Int64
	resumeFallbackReason string

	// Supervision state (see health.go). ckptFailures is the
	// consecutive-failure streak pacing the retry backoff;
	// ckptFailuresTotal is the cumulative counter /metrics exports.
	// panics carries across restart incarnations (the crash-loop
	// budget's accounting). startUnix anchors the checkpoint-age alarm
	// before any checkpoint has landed.
	health            atomic.Int32
	ckptFailures      atomic.Int64
	ckptFailuresTotal atomic.Int64
	ckptRetryAtUnix   atomic.Int64
	panics            atomic.Int64
	restarts          atomic.Int64
	startUnix         int64

	closed atomic.Bool
}

// newTenant builds a tenant on its assigned shard. Its monitor runs over
// the daemon's shared trained pipeline, with streaming state restored
// from the tenant's own store when resuming. resume overrides the
// fleet-wide Resume default — Restart always resumes, whatever the
// config says.
func (d *Daemon) newTenant(id, token string, shardIdx int, resume bool) (*Tenant, error) {
	t := &Tenant{
		ID:        id,
		Shard:     shardIdx,
		token:     token,
		d:         d,
		shardMu:   &d.shards[shardIdx].mu,
		startUnix: time.Now().UnixNano(),
	}

	if d.cfg.StoreRoot != "" {
		store, err := modelstore.OpenTenant(d.cfg.StoreRoot, id, modelstore.Options{
			FS:        d.cfg.StoreFS,
			FullEvery: d.cfg.StoreFullEvery,
		})
		if err != nil {
			return nil, err
		}
		t.store = store
	}
	t.fingerprint = d.cfg.Fingerprint

	scfg := d.cfg.StreamCfg
	// The monitor recycles flow storage as soon as the callback
	// returns; recordEvent drops e.Flow before retaining anything.
	scfg.RecycleFlows = true
	scfg.OnEvent = t.recordEvent
	scfg.OnDeviation = t.recordDeviation

	if !resume || !t.tryRestore(scfg) {
		t.monitor = stream.NewMonitor(d.pipe, d.cfg.AssemblerCfg, scfg)
	}

	logPath := d.cfg.EventLogFile
	if logPath == "" && d.cfg.EventLogDir != "" {
		logPath = filepath.Join(d.cfg.EventLogDir, id+".jsonl")
	}
	if logPath != "" {
		if err := t.openEventLog(logPath); err != nil {
			return nil, err
		}
	}
	// A resume fallback happened before the event log existed; record
	// it there now so operators have a durable trace, not just a
	// process log line.
	if t.resumeFallbackReason != "" && t.eventLog != nil {
		t.logLine(eventLogLine{
			Type: "resume-fallback", Time: time.Now().UTC(),
			Device: "-", Detail: t.resumeFallbackReason,
		})
	}
	return t, nil
}

// Record is one wire record awaiting ingest. Data is only borrowed for
// the Ingest call, so a source may point it into its read buffer.
type Record struct {
	Time time.Time
	Data []byte
}

// Ingest decodes recs in order and feeds them to the tenant's monitor
// on the caller's goroutine, under one acquisition of the shard lock
// (which is also the backpressure), and returns how many it consumed.
// Decode failures are counted per error class and dropped, never fatal.
//
// Ingest is the tenant's supervision boundary: a panic below it
// quarantines this tenant, releases the shard lock and surfaces as
// ErrTenantQuarantined. Closed and quarantined are checked under the
// lock: close() marks the tenant closed before it takes the lock to
// finalize the monitor, so no record follows monitor.Close().
func (t *Tenant) Ingest(recs []Record) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			t.quarantinePanic("feed", r)
			err = ErrTenantQuarantined
		}
	}()
	t.shardMu.Lock()
	defer t.shardMu.Unlock()
	// Quarantine outranks closed: a restart-failure placeholder is both,
	// and sources should hear the operator-actionable error.
	if t.Health() == Quarantined {
		return 0, ErrTenantQuarantined
	}
	if t.closed.Load() {
		return 0, ErrTenantClosed
	}
	if probe := t.d.cfg.PanicProbe; probe != nil {
		probe(t.ID)
	}
	for ; n < len(recs); n++ {
		t.received.Add(1)
		if derr := netparse.DecodeInto(&t.pkt, recs[n].Data); derr != nil {
			t.countParseError(derr)
			continue
		}
		t.pkt.Timestamp = recs[n].Time
		t.fed.Add(1)
		t.monitor.Feed(&t.pkt)
	}
	// Drop the borrowed bytes, then put the batch's log lines on disk.
	t.pkt.Payload = nil
	t.ringMu.Lock()
	t.flushEventLogLocked()
	t.ringMu.Unlock()
	return n, nil
}

// IngestRecord is the one-record form of Ingest. The third parameter
// is unused; its last caller passing it (as nil) is bench/layers.go.
func (t *Tenant) IngestRecord(ts time.Time, data []byte, _ *[]byte) error {
	_, err := t.Ingest([]Record{{Time: ts, Data: data}})
	return err
}

func (t *Tenant) countParseError(err error) {
	t.parseErrors.Add(1)
	class := netparse.ErrorClass(err)
	for i, c := range parseClasses {
		if c == class {
			t.parseByClass[i].Add(1)
			return
		}
	}
	t.parseByClass[len(parseClasses)-1].Add(1)
}

// recordEvent and recordDeviation are the stream callback targets. They
// run under the shard lock on the ingesting goroutine, so they take only
// ringMu, then (publish never blocks) the feed hub's lock.
func (t *Tenant) recordEvent(e stream.Event) {
	if e.Class != core.EventUser {
		return
	}
	// Drop the flow reference before retaining the event: the monitor
	// recycles flow storage once this callback returns.
	e.Flow = nil
	t.ringMu.Lock()
	t.events = pushRing(t.events, e)
	t.appendEventLogLocked(eventLogLine{
		Type: "event", Time: e.Time, Device: e.Device,
		Label: e.Label, Confidence: e.Confidence,
	})
	t.ringMu.Unlock()
	t.d.publish(FeedItem{
		Tenant: t.ID, Kind: "event", Time: e.Time, Device: e.Device,
		Label: e.Label, Confidence: e.Confidence,
	})
}

func (t *Tenant) recordDeviation(d stream.Deviation) {
	t.ringMu.Lock()
	t.deviations = pushRing(t.deviations, d)
	t.appendEventLogLocked(eventLogLine{
		Type: "deviation", Time: d.Time, Device: d.Device,
		Kind: d.Kind.String(), Detail: d.Detail, Score: d.Score,
	})
	t.ringMu.Unlock()
	t.d.publish(FeedItem{
		Tenant: t.ID, Kind: "deviation", Time: d.Time, Device: d.Device,
		Detail: d.Detail, DevKind: d.Kind.String(), Score: d.Score,
	})
}

// pushRing appends v, keeping only the newest ringSize entries.
func pushRing[T any](ring []T, v T) []T {
	if ring = append(ring, v); len(ring) > ringSize {
		ring = ring[len(ring)-ringSize:]
	}
	return ring
}

// eventLogLine is one JSONL record in a tenant's event log. Field
// order and encoding are fixed, so runs that observe the same events
// produce byte-identical logs — the isolation and crash-recovery oracles
// diff them.
type eventLogLine struct {
	Type       string    `json:"type"`
	Time       time.Time `json:"time"`
	Device     string    `json:"device"`
	Label      string    `json:"label,omitempty"`
	Kind       string    `json:"kind,omitempty"`
	Detail     string    `json:"detail,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	Score      float64   `json:"score,omitempty"`
}

// openEventLog opens (creating if needed) the tenant's event log and
// truncates it to the restored high-water mark: lines a crashed process
// appended after its last durable checkpoint are discarded, so the log
// and the ingest cursor agree and a resumed run appends exactly what an
// uninterrupted run would have.
func (t *Tenant) openEventLog(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("fleet: tenant %s event log: %w", t.ID, err)
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	if err := f.Truncate(t.eventLogBytes); err != nil {
		f.Close() //lint:ignore errcheck truncate error already being reported
		return fmt.Errorf("fleet: tenant %s event log: %w", t.ID, err)
	}
	if _, err := f.Seek(t.eventLogBytes, io.SeekStart); err != nil {
		f.Close() //lint:ignore errcheck seek error already being reported
		return fmt.Errorf("fleet: tenant %s event log: %w", t.ID, err)
	}
	t.eventLog = f
	return nil
}

// appendJSON appends the line exactly as json.Marshal renders it
// (pinned by TestEventLogLineMatchesEncodingJSON), or reports false for
// a line JSON cannot carry — a non-finite score — leaving dst as it was.
func (l *eventLogLine) appendJSON(dst []byte) ([]byte, bool) {
	o := jsonenc.Begin(dst)
	o.String("type", l.Type)
	o.Time("time", l.Time)
	o.String("device", l.Device)
	o.OptString("label", l.Label)
	o.OptString("kind", l.Kind)
	o.OptString("detail", l.Detail)
	o.OptFloat("confidence", l.Confidence)
	o.OptFloat("score", l.Score)
	return o.End()
}

// appendEventLogLocked encodes one line into logBuf (a line JSON cannot
// carry is dropped and logged). Caller holds ringMu.
func (t *Tenant) appendEventLogLocked(line eventLogLine) {
	if t.eventLog == nil {
		return
	}
	buf, ok := line.appendJSON(t.logBuf)
	if !ok {
		log.Printf("fleet: tenant %s event log: unencodable %s line (score %v, time %v) dropped",
			t.ID, line.Type, line.Score, line.Time)
		return
	}
	t.logBuf = append(buf, '\n')
}

// logLine writes one line through at once (supervision, resume notes).
func (t *Tenant) logLine(line eventLogLine) {
	t.ringMu.Lock()
	t.appendEventLogLocked(line)
	t.flushEventLogLocked()
	t.ringMu.Unlock()
}

// flushEventLogLocked writes logBuf with one Write and advances the
// high-water mark. Caller holds ringMu.
func (t *Tenant) flushEventLogLocked() {
	if len(t.logBuf) == 0 || t.eventLog == nil {
		return
	}
	if _, err := t.eventLog.Write(t.logBuf); err != nil {
		log.Printf("fleet: tenant %s event log: %v", t.ID, err)
	} else {
		t.eventLogBytes += int64(len(t.logBuf))
	}
	t.logBuf = t.logBuf[:0]
}

// closeEventLogLocked flushes and closes the log. Caller holds ringMu.
func (t *Tenant) closeEventLogLocked() {
	if t.eventLog == nil {
		return
	}
	t.flushEventLogLocked()
	if err := t.eventLog.Close(); err != nil {
		log.Printf("fleet: tenant %s event log close: %v", t.ID, err)
	}
	t.eventLog = nil
}

func (t *Tenant) stats() stream.Stats {
	t.shardMu.Lock()
	defer t.shardMu.Unlock()
	return t.monitor.Stats()
}

// Status returns the tenant's live counters in the /tenants/{id}/status
// JSON shape.
func (t *Tenant) Status() map[string]any {
	st := t.stats()
	body := map[string]any{
		"tenant":           t.ID,
		"shard":            t.Shard,
		"health":           t.Health().String(),
		"panics_total":     t.panics.Load(),
		"restarts_total":   t.restarts.Load(),
		"stream_time":      st.StreamTime,
		"packets":          st.Packets,
		"flows":            st.Flows,
		"periodic":         st.Periodic,
		"user":             st.User,
		"aperiodic":        st.Aperiodic,
		"traces":           st.Traces,
		"deviations":       st.Deviations,
		"late_dropped":     st.LateDropped,
		"received_records": t.received.Load(),
		"fed_records":      t.fed.Load(),
		"parse_errors":     t.parseErrors.Load(),
		// Nothing is ever queued; last reader: bench/layers.go:278.
		"queue_depth": 0,
	}
	classes := map[string]int64{}
	for i, c := range parseClasses {
		if n := t.parseByClass[i].Load(); n > 0 {
			classes[c] = n
		}
	}
	if len(classes) > 0 {
		body["parse_errors_by_class"] = classes
	}
	if t.store != nil {
		ws := t.store.Stats()
		body["store_generation"] = t.storeGen.Load()
		body["checkpoints_total"] = t.checkpointsTotal.Load()
		body["checkpoint_failures_total"] = t.ckptFailuresTotal.Load()
		body["checkpoint_fulls_total"] = ws.Fulls
		body["checkpoint_deltas_total"] = ws.Deltas
		body["checkpoint_bytes_total"] = ws.FullBytes + ws.DeltaBytes
		body["checkpoint_age_alarm"] = t.checkpointAgeAlarm()
		body["resume_fallbacks_total"] = t.resumeFallbacks.Load()
		if reason := t.resumeFallbackReason; reason != "" {
			body["resume_fallback_reason"] = reason
		}
		if last := t.lastCkptUnix.Load(); last > 0 {
			body["last_checkpoint_age_seconds"] = time.Since(time.Unix(0, last)).Seconds()
		}
	}
	return body
}

// Events returns a copy of the tenant's recent user events.
func (t *Tenant) Events() []stream.Event {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	return append([]stream.Event(nil), t.events...)
}

// Deviations returns a copy of the tenant's recent deviations.
func (t *Tenant) Deviations() []stream.Deviation {
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	return append([]stream.Deviation(nil), t.deviations...)
}

// discard disposes of a tenant that never entered the registry (an
// Add that lost the race with Daemon.Close). Unlike close it writes
// nothing: this instance observed no traffic, and a checkpoint here
// would burn a store generation on state a future Resume already has.
// It only releases what newTenant opened.
func (t *Tenant) discard() {
	t.closed.Store(true)
	t.ringMu.Lock()
	t.closeEventLogLocked()
	t.ringMu.Unlock()
}

// Finalize flushes trailing flows through classification and closes the
// open trace — the end of a capture. The tenant stays open and serving;
// callers that want the result durable follow with Checkpoint. It is a
// supervision boundary: a panic here quarantines the tenant. Quarantined
// tenants are skipped — their monitor state may be poisoned by whatever
// panicked.
func (t *Tenant) Finalize() {
	if t.Health() == Quarantined {
		return
	}
	defer t.catchPanic("finalize")
	t.shardMu.Lock()
	defer t.shardMu.Unlock()
	t.monitor.Close()
}

// Suspend stops the tenant where it stands: no new ingest (a batch
// already under the shard lock finishes first), a checkpoint at that
// record boundary, the event log closed. The monitor is NOT finalized —
// open flows and the open trace go into the checkpoint as they are, so
// a resumed tenant continues them as if never interrupted. This is what
// a process told to stop mid-capture wants; close is Finalize + Suspend.
// Quarantined tenants write nothing: their last durable checkpoint is
// the state worth keeping. Idempotent.
func (t *Tenant) Suspend() {
	if t.closed.Swap(true) {
		return
	}
	t.settle()
}

// close finalizes the tenant and suspends it: the end of a tenant whose
// sources are gone for good. closed is set before Finalize takes the
// shard lock, so no record follows monitor.Close(). Idempotent; called
// by Remove, Restart, and Daemon.Close.
func (t *Tenant) close() {
	if t.closed.Swap(true) {
		return
	}
	t.Finalize()
	t.settle()
}

// settle lands the closing checkpoint and closes the event log.
func (t *Tenant) settle() {
	if t.Health() != Quarantined {
		t.Checkpoint()
	}
	t.ringMu.Lock()
	t.closeEventLogLocked()
	t.ringMu.Unlock()
}
