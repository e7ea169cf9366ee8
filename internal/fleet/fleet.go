package fleet

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"behaviot/internal/backoff"
	"behaviot/internal/core"
	"behaviot/internal/faultfs"
	"behaviot/internal/flows"
	"behaviot/internal/stream"
)

// Config assembles a fleet daemon.
type Config struct {
	// Shards is the number of serialization domains (worker count).
	// Feed concurrency never exceeds it, however many tenants are
	// registered. Default: GOMAXPROCS.
	Shards int
	// PipeSnap is the marshaled trained pipeline (core.MarshalPipeline
	// bytes). New unmarshals it once and every tenant's monitor
	// classifies over that one read-only copy, keeping its own timer
	// anchors (stream.NewMonitor), so tenants share the trained models
	// but no state either of them writes. Required.
	PipeSnap []byte
	// Fingerprint ties tenant checkpoints to the training inputs.
	// Tenancy is expressed in store paths, not fingerprints.
	Fingerprint string
	// AssemblerCfg configures each tenant's flow assembler.
	AssemblerCfg flows.Config
	// StreamCfg is the monitor configuration template (FlushAfter,
	// MaxSkew, ...). OnEvent/OnDeviation/RecycleFlows are overridden
	// per tenant.
	StreamCfg stream.Config
	// StoreRoot, when set, enables crash-safe checkpoints under
	// StoreRoot/tenants/<id>/ (modelstore.OpenTenant).
	StoreRoot string
	// EventLogDir, when set, gives each tenant a JSONL event log at
	// EventLogDir/<id>.jsonl.
	EventLogDir string
	// EventLogFile, when set, names the event log outright instead. It is
	// for the fleet of one that `behaviotd -eventlog FILE` runs; two
	// tenants must never share a log, so Add refuses a second one.
	EventLogFile string
	// CheckpointInterval, when positive, makes each shard's
	// housekeeping worker land periodic checkpoints for its tenants.
	// Zero means final checkpoints only (at Remove/Close).
	CheckpointInterval time.Duration
	// Resume makes newly added tenants restore from their namespaced
	// store when an intact matching snapshot exists.
	Resume bool
	// StoreFS, when set, routes every tenant store's filesystem
	// operations through it (modelstore.Options.FS) — a
	// faultfs.Injector in fault soaks. Nil means the real filesystem.
	StoreFS faultfs.FS
	// StoreFullEvery enables differential checkpoints in every tenant
	// store (modelstore.Options.FullEvery): every N-th generation is a
	// full snapshot, the ones between are deltas against their
	// predecessor. Values <= 1 (the default) keep the pre-delta
	// behavior: every checkpoint is a full snapshot.
	StoreFullEvery int
	// CheckpointBackoff paces checkpoint retries after a failure. The
	// zero policy means 500ms base, 30s cap, ±25% jitter (seeded per
	// tenant ID, so a fleet degraded by one full disk does not
	// stampede it in lockstep).
	CheckpointBackoff backoff.Policy
	// CheckpointAgeAlarm is how stale a tenant's newest durable
	// checkpoint may grow before the checkpoint-age alarm fires on
	// /metrics and /tenants/{id}/status. Default: 3×CheckpointInterval
	// (when periodic checkpointing is on).
	CheckpointAgeAlarm time.Duration
	// CrashLoopBudget bounds restarts of a panicking tenant: once its
	// cumulative panic count (carried across restart incarnations)
	// exceeds the budget, Restart refuses with ErrCrashLoop and the
	// tenant stays quarantined. Default 3.
	CrashLoopBudget int
	// PanicProbe, when set, runs inside every tenant's Ingest boundary
	// (under the shard lock, before the batch reaches the monitor)
	// with the tenant's ID. It exists for fault injection: a probe
	// that panics for one tenant ID detonates exactly the failure the
	// supervision layer must contain. Nil in production.
	PanicProbe func(tenantID string)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.CheckpointAgeAlarm <= 0 && c.CheckpointInterval > 0 {
		c.CheckpointAgeAlarm = 3 * c.CheckpointInterval
	}
	if c.CrashLoopBudget <= 0 {
		c.CrashLoopBudget = 3
	}
	return c
}

// Daemon hosts many tenant deployments behind one process: a registry
// of tenants placed on shards by a consistent hash ring, an SSE feed
// hub, and per-shard housekeeping workers. Ingest sources reach
// tenants through Authenticate + Tenant.Ingest (the listener front
// end does exactly that); operators reach them through the REST
// control plane (RegisterHandlers).
type Daemon struct {
	cfg    Config
	pipe   *core.Pipeline // the trained model every tenant shares; never written
	ring   *Ring
	shards []*shard

	mu      sync.RWMutex // guards tenants, pending, closed
	tenants map[string]*Tenant
	// pending holds IDs whose on-disk state is busy outside the lock:
	// an Add constructing its tenant, or a Remove still draining. An
	// ID in here is exclusively owned — a concurrent Add is rejected
	// before it can touch the same store or event log.
	pending map[string]struct{}
	closed  bool

	feed *feedHub
}

// ErrClosed is returned by registry mutations after Daemon.Close.
var ErrClosed = errors.New("fleet: daemon closed")

// New builds a fleet daemon. It unmarshals the pipeline snapshot once,
// for every tenant to share, so a bad snapshot fails construction, not
// the first Add.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	pipe, err := core.UnmarshalPipeline(cfg.PipeSnap)
	if err != nil {
		return nil, fmt.Errorf("fleet: pipeline snapshot: %w", err)
	}
	if cfg.EventLogDir != "" {
		if err := os.MkdirAll(cfg.EventLogDir, 0o755); err != nil {
			return nil, fmt.Errorf("fleet: event log dir: %w", err)
		}
	}
	d := &Daemon{
		cfg:     cfg,
		pipe:    pipe,
		ring:    NewRing(cfg.Shards),
		tenants: map[string]*Tenant{},
		pending: map[string]struct{}{},
		feed:    newFeedHub(),
	}
	d.shards = make([]*shard, cfg.Shards)
	for i := range d.shards {
		d.shards[i] = newShard(i, d)
	}
	return d, nil
}

// Shards returns the shard count.
func (d *Daemon) Shards() int { return d.cfg.Shards }

// TenantCount returns the number of registered tenants.
func (d *Daemon) TenantCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.tenants)
}

// List returns the registered tenants sorted by ID (map iteration
// order must never leak into handler output).
func (d *Daemon) List() []*Tenant {
	d.mu.RLock()
	out := make([]*Tenant, 0, len(d.tenants))
	for _, t := range d.tenants {
		out = append(out, t)
	}
	d.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close shuts the fleet down cleanly: housekeeping workers stop, then
// every tenant is finalized (trailing flows flushed through its
// monitor), final-checkpointed, and its event log closed. Tenants are
// closed shard-parallel — shards are independent serialization
// domains — but sequentially within a shard. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()

	for _, sh := range d.shards {
		sh.stop()
	}

	// closed keeps Add and Restart out: the list is final, and ID-sorted.
	byShard := make([][]*Tenant, d.cfg.Shards)
	for _, t := range d.List() {
		byShard[t.Shard] = append(byShard[t.Shard], t)
	}
	var wg sync.WaitGroup
	for _, ts := range byShard {
		if len(ts) == 0 {
			continue
		}
		wg.Add(1)
		go func(ts []*Tenant) {
			defer wg.Done()
			for _, t := range ts {
				t.close()
			}
		}(ts)
	}
	wg.Wait()
	d.feed.close()
	return nil
}
