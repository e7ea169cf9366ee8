// Command behaviotd is a BehavIoT monitoring daemon: it trains behavior
// models, then watches packet streams and serves live status over HTTP —
// the home-gateway deployment the paper proposes for anomaly detection
// (§7.2). It has one runtime, internal/fleet, in two shapes:
//
//   - single-home (the default): a fleet of one. The tenant "home" is fed
//     in process from a capture (-replay, at capture pace with -simrate
//     or as fast as possible) or from a synthetic simulator day (-sim).
//   - -fleet: many homes behind one daemon, each fed over authenticated
//     unix/TCP ingest sockets (see internal/fleet/listener).
//
// Ingest degrades gracefully instead of aborting: with -tolerant the
// pcap reader resyncs past corrupt records, malformed frames are counted
// per error class rather than fatal, and -maxskew sheds packets whose
// clock lags stream time. All damage shows up as counters on /status and
// /metrics. With -store the daemon keeps the trained model once under
// DIR/model/ (training only when no generation there matches the
// training inputs) and checkpoints each home's streaming state
// crash-safely under DIR/tenants/<id>/; SIGINT/SIGTERM stop it at a
// record boundary with a final checkpoint, and -resume continues from
// the newest intact one without retraining.
//
// Endpoints (both shapes; see fleet.Daemon.RegisterHandlers):
//
//	GET /healthz                 health rollup (degraded/quarantined tenants)
//	GET /metrics                 Prometheus text, tenant-labeled series
//	GET /feed                    SSE stream of user events and deviations
//	GET /tenants[/{id}/status|events|deviations], POST/DELETE /tenants...
//
// Single-home adds root aliases for its one tenant:
//
//	GET /status      the home's counters plus uptime and reader damage
//	GET /events      most recent user events (JSON array)
//	GET /deviations  most recent deviations (JSON array)
//
// Usage:
//
//	behaviotd -listen :8650 -replay capture.pcap -idle idle.pcap \
//	          -devices devices.csv [-tolerant] [-maxskew 2s]
//
// With -sim (no capture needed) the daemon trains on the bundled testbed
// simulator and feeds itself a synthetic day, which makes it a
// self-contained demo. -sim composes with -replay (replay a capture
// against simulator-trained models) and with -impair (damage the
// synthetic feed through the internal/chaos operators first):
//
//	behaviotd -listen :8650 -sim -impair drop=0.01,corrupt=0.01,skew=50ms
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/crc32"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"behaviot/internal/backoff"
	"behaviot/internal/faultfs"
	"behaviot/internal/fleet"
	"behaviot/internal/flows"
	"behaviot/internal/pcapio"
	"behaviot/internal/stream"
)

// options carries the parsed flags to whichever shape runs.
type options struct {
	listen   string
	sim      bool
	simRate  float64
	idle     string
	devices  string
	replay   string
	tolerant bool
	maxSkew  time.Duration
	impair   string
	eventLog string
	resume   bool

	store     string
	ckptIvl   time.Duration
	fullEvery int        // -store-full-every: differential checkpoint cadence
	storeFS   faultfs.FS // parsed -store-fault injector, nil = real filesystem

	fleetShards  int
	fleetUnix    string // comma-separated unix socket paths
	fleetTCP     string
	fleetTenants string // roster file (id,token per line)
	fleetLogDir  string
}

func main() {
	os.Exit(run())
}

// run is main with an exit code, so error paths return a clear message
// and a nonzero status instead of a bare log.Fatal mid-feed.
func run() int {
	var o options
	flag.StringVar(&o.listen, "listen", ":8650", "HTTP listen address")
	flag.BoolVar(&o.sim, "sim", false, "self-contained demo: train on the simulator and feed synthetic traffic")
	flag.Float64Var(&o.simRate, "simrate", 0, "replay speed multiplier for the -sim and -replay feeds (0 = as fast as possible)")
	flag.StringVar(&o.idle, "idle", "", "idle training capture (pcap)")
	flag.StringVar(&o.devices, "devices", "", "device manifest CSV")
	flag.StringVar(&o.replay, "replay", "", "capture to monitor (pcap)")
	flag.BoolVar(&o.tolerant, "tolerant", false, "degrade gracefully on damaged captures: resync past corrupt pcap records, count malformed frames per class instead of aborting")
	flag.DurationVar(&o.maxSkew, "maxskew", 0, "drop packets whose timestamp lags stream time by more than this (0 = accept any lag)")
	flag.StringVar(&o.impair, "impair", "", "impair the -sim feed through internal/chaos, e.g. drop=0.01,corrupt=0.01,skew=50ms (requires -sim)")
	flag.StringVar(&o.store, "store", "", "model store directory: the trained model once under model/, crash-safe checkpoints one namespace per home under tenants/ (empty = no checkpointing, always train)")
	flag.DurationVar(&o.ckptIvl, "checkpoint-interval", 30*time.Second, "how often to checkpoint each home's streaming state into -store")
	flag.IntVar(&o.fullEvery, "store-full-every", 1, "differential checkpoints: write a full snapshot every N generations and deltas in between (1 = every checkpoint is full)")
	storeFlt := flag.String("store-fault", "", "inject filesystem faults into -store checkpoint writes (internal/faultfs spec, e.g. failwrite=1,tear=3,path=.delta,match=1); fault soaks only")
	verifyF := flag.Bool("verify-store", false, "verify the -store directory (its model/ and tenants/<id>/ stores): validate every generation's delta chain, print a report, exit nonzero if any newest chain is broken")
	flag.BoolVar(&o.resume, "resume", false, "resume from the newest intact -store checkpoint (both shapes): restore each home's streaming state and fast-forward the feed to the checkpointed record; training runs only when -store's model/ has no generation for the training inputs")
	flag.StringVar(&o.eventLog, "eventlog", "", "append one JSON line per user event and deviation to this file (truncated to the last checkpoint on -resume)")

	fleetMode := flag.Bool("fleet", false, "multi-tenant mode: host many homes behind one daemon, ingesting over -fleet-unix/-fleet-tcp sockets (shares -listen, -maxskew, -store, -checkpoint-interval, -resume, and the -sim or -idle/-devices training inputs)")
	flag.IntVar(&o.fleetShards, "fleet-shards", 0, "fleet serialization shards / worker count (0 = GOMAXPROCS)")
	flag.StringVar(&o.fleetUnix, "fleet-unix", "", "comma-separated unix socket paths accepting fleet ingest connections")
	flag.StringVar(&o.fleetTCP, "fleet-tcp", "", "TCP address accepting fleet ingest connections")
	flag.StringVar(&o.fleetTenants, "fleet-tenants", "", "tenant roster file: one `id,token` line per home")
	flag.StringVar(&o.fleetLogDir, "fleet-eventlog-dir", "", "directory for per-tenant JSONL event logs (<id>.jsonl)")
	flag.Parse()
	log.SetFlags(log.Ltime)

	if *verifyF {
		if o.store == "" {
			fmt.Fprintln(os.Stderr, "behaviotd: -verify-store requires -store; see -h")
			return 2
		}
		return runVerifyStore(o.store, os.Stdout)
	}

	var err error
	if o.storeFS, err = parseStoreFault(*storeFlt); err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 2
	}
	if *fleetMode {
		return runFleet(o)
	}
	return runHome(o)
}

// fleetConfig is the fleet.Config both shapes share: what the flags say
// about training, skew, checkpointing and resume. The caller adds its
// shard count and event-log placement.
func (o options) fleetConfig(pipeSnap []byte, acfg flows.Config, fingerprint string) fleet.Config {
	cfg := fleet.Config{
		PipeSnap:       pipeSnap,
		Fingerprint:    fingerprint,
		AssemblerCfg:   acfg,
		StreamCfg:      stream.Config{MaxSkew: o.maxSkew},
		StoreRoot:      o.store,
		StoreFullEvery: o.fullEvery,
		StoreFS:        o.storeFS,
		Resume:         o.resume,
	}
	if o.store != "" {
		cfg.CheckpointInterval = o.ckptIvl
	}
	return cfg
}

// serveHTTP binds addr and serves handler on it in the background. The
// returned channel carries Serve's exit error.
func serveHTTP(addr string, handler http.Handler) (*http.Server, net.Addr, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, ln.Addr(), errc, nil
}

func shutdownHTTP(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
}

// parseStoreFault turns the -store-fault spec into the filesystem the
// model store writes through: nil (the real filesystem) for an empty
// spec, a faultfs injector otherwise. Fault soaks use it to tear or
// fail specific store writes inside a real daemon process.
func parseStoreFault(spec string) (faultfs.FS, error) {
	cfg, err := faultfs.ParseConfig(spec)
	if err != nil {
		return nil, err
	}
	if cfg == (faultfs.Config{}) {
		return nil, nil
	}
	return faultfs.Wrap(nil, cfg), nil
}

// fileCRC returns the CRC32C of a file's contents, the cheap identity
// used in store fingerprints (a capture or manifest edit must invalidate
// old snapshots).
func fileCRC(path string) (uint32, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)), nil
}

// preflightPcap verifies a capture can be opened and has a valid pcap
// header.
func preflightPcap(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("replay capture: %w", err)
	}
	defer f.Close()
	if _, err := pcapio.NewReader(f); err != nil {
		return fmt.Errorf("replay capture %s: %w", path, err)
	}
	return nil
}

// openWithRetry opens a file, pacing retries with the shared backoff
// policy from 100ms: transient filesystem hiccups (NFS gateway storage,
// log rotation races) get three more chances before the caller gives up.
func openWithRetry(path string) (*os.File, error) {
	pace := backoff.Policy{Base: 100 * time.Millisecond}
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			d := pace.Delay(attempt, backoff.Seed(path))
			log.Printf("open %s failed (%v), retrying in %s", path, lastErr, d)
			time.Sleep(d)
		}
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, lastErr
}
