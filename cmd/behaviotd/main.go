// Command behaviotd is a BehavIoT monitoring daemon: it trains behavior
// models, then watches a packet stream (a pcap replayed at capture pace or
// as fast as possible, or a continuous simulator feed) and serves live
// status over HTTP — the home-gateway deployment the paper proposes for
// anomaly detection (§7.2).
//
// The ingest path degrades gracefully instead of aborting: with -tolerant
// the pcap reader resyncs past corrupt records and malformed frames are
// counted per error class rather than fatal, -queue bounds the feed queue
// between the capture producer and the monitor, and -maxskew sheds
// packets whose clock lags stream time. All damage shows up as counters
// on /status and /metrics. SIGINT/SIGTERM shut the daemon down cleanly.
//
// Endpoints:
//
//	GET /healthz     liveness probe
//	GET /status      JSON counters (packets, flows, events by class, deviations, ingest health)
//	GET /events      most recent user events (JSON array)
//	GET /deviations  most recent deviations (JSON array)
//	GET /metrics     Prometheus-style text exposition
//
// Usage:
//
//	behaviotd -listen :8650 -replay capture.pcap -idle idle.pcap \
//	          -devices devices.csv [-tolerant] [-queue 4096] [-maxskew 2s]
//
// With -sim (no capture needed) the daemon trains on the bundled testbed
// simulator and feeds itself a continuous synthetic day, which makes it a
// self-contained demo. -sim composes with -replay (replay a capture
// against simulator-trained models) and with -impair (damage the
// synthetic feed through the internal/chaos operators first):
//
//	behaviotd -listen :8650 -sim -impair drop=0.01,corrupt=0.01,skew=50ms
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"behaviot/internal/backoff"
	"behaviot/internal/chaos"
	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/modelstore"
	"behaviot/internal/netparse"
	"behaviot/internal/pcapio"
	"behaviot/internal/pfsm"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// ringSize bounds the recent-event and recent-deviation buffers.
const ringSize = 256

// feedBatch caps how many queued packets the -queue consumer drains per
// monitor-lock acquisition. Under light load batches degenerate to
// single packets, so latency is unaffected.
const feedBatch = 64

// server holds the daemon's shared state: mu guards the stream monitor
// (owned by the feeder goroutine, sampled by HTTP handlers) and ringMu
// guards the recent-event buffers. They are separate locks because the
// monitor invokes the ring-buffer callbacks while mu is held. The
// ingest-health counters are atomics so the feeder can bump them
// without a lock ordering on the hot path.
type server struct {
	mu      sync.Mutex // guards monitor
	monitor *stream.Monitor

	ringMu     sync.Mutex // guards events, deviations
	events     []stream.Event
	deviations []stream.Deviation

	// Ingest-health counters (see ingestRecord and feedPcapFile).
	parseErrors    atomic.Int64
	parseByClass   [len(parseClasses)]atomic.Int64
	skippedRecords atomic.Int64
	skippedBytes   atomic.Int64

	// queue is the optional bounded feed queue (-queue), nil when the
	// feeder writes straight into the monitor.
	queue *stream.Queue

	tolerant bool
	started  time.Time

	// Crash-safe checkpointing (-store). pipe is the trained pipeline the
	// monitor wraps (needed for snapshots); fedRecords is the feed cursor
	// (records dispatched by the feeder, maintained producer-side so a
	// queue Flush makes it exact); skipRecords is how far a resumed feeder
	// fast-forwards. ckptDue is raised by the interval ticker and consumed
	// by the feeder at record boundaries; stopping quiesces the feeder for
	// a final checkpoint on SIGTERM/SIGINT.
	store       *modelstore.Store
	resume      bool
	fingerprint string
	pipe        *core.Pipeline
	skipRecords int64
	fedRecords  atomic.Int64
	ckptDue     atomic.Bool
	stopping    atomic.Bool

	storeGen         atomic.Int64
	lastCkptUnix     atomic.Int64
	checkpointsTotal atomic.Int64

	// Checkpoint retry pacing: the same failure accounting and backoff
	// policy the fleet housekeeper applies per tenant. ckptFailures is
	// the consecutive-failure streak (reset when a write lands),
	// ckptFailuresTotal the lifetime counter surfaced on /status and
	// /metrics, and ckptRetryAtUnix the earliest instant the next
	// attempt may run — a full disk is retried on the backoff schedule,
	// not hammered every ticker interval.
	ckptFailures      atomic.Int64
	ckptFailuresTotal atomic.Int64
	ckptRetryAtUnix   atomic.Int64
	ckptBackoff       backoff.Policy

	// eventLog (-eventlog) appends one JSONL line per user event and
	// deviation; eventLogBytes is its durable high-water mark. Both are
	// guarded by ringMu (record() writes while holding it).
	eventLog      *os.File
	eventLogBytes int64
}

// parseClasses indexes the per-class parse error counters; the last
// slot collects unclassified errors.
var parseClasses = [...]string{
	netparse.ClassChecksum, netparse.ClassMalformed,
	netparse.ClassTruncated, netparse.ClassUnsupported, "other",
}

func main() {
	os.Exit(run())
}

// run is main with an exit code, so error paths return a clear message
// and a nonzero status instead of a bare log.Fatal mid-feed.
func run() int {
	var (
		listen    = flag.String("listen", ":8650", "HTTP listen address")
		sim       = flag.Bool("sim", false, "self-contained demo: train on the simulator and feed synthetic traffic")
		simRate   = flag.Float64("simrate", 0, "replay speed multiplier for the -sim and -replay feeds (0 = as fast as possible)")
		idleP     = flag.String("idle", "", "idle training capture (pcap)")
		devsP     = flag.String("devices", "", "device manifest CSV")
		replayP   = flag.String("replay", "", "capture to monitor (pcap)")
		tolerant  = flag.Bool("tolerant", false, "degrade gracefully on damaged captures: resync past corrupt pcap records, count malformed frames per class instead of aborting")
		queueLen  = flag.Int("queue", 0, "bounded feed queue length between capture producer and monitor (0 = feed directly); overflow is counted, not blocking. Accepted and ignored under -fleet, where each ingest connection feeds its tenant's monitor directly")
		maxSkew   = flag.Duration("maxskew", 0, "drop packets whose timestamp lags stream time by more than this (0 = accept any lag)")
		impairS   = flag.String("impair", "", "impair the -sim feed through internal/chaos, e.g. drop=0.01,corrupt=0.01,skew=50ms (requires -sim)")
		storeP    = flag.String("store", "", "model store directory for crash-safe checkpoints (empty = no checkpointing)")
		ckptIvl   = flag.Duration("checkpoint-interval", 30*time.Second, "how often to checkpoint models and streaming state into -store")
		fullEvery = flag.Int("store-full-every", 1, "differential checkpoints: write a full snapshot every N generations and deltas in between (1 = every checkpoint is full)")
		storeFlt  = flag.String("store-fault", "", "inject filesystem faults into -store writes (internal/faultfs spec, e.g. failwrite=1,tear=3,path=.delta,match=1); fault soaks only")
		verifyF   = flag.Bool("verify-store", false, "verify the -store directory (single store or fleet tenants/ root): validate every generation's delta chain, print a report, exit nonzero if any newest chain is broken")
		resumeF   = flag.Bool("resume", false, "resume from the newest intact -store snapshot: skip training, restore streaming state, fast-forward the feed cursor")
		eventLog  = flag.String("eventlog", "", "append one JSON line per user event and deviation to this file (truncated to the last checkpoint on -resume)")

		fleetMode    = flag.Bool("fleet", false, "multi-tenant mode: host many homes behind one daemon, ingesting over -fleet-unix/-fleet-tcp sockets (shares -listen, -maxskew, -store, -checkpoint-interval, -resume, and the -sim or -idle/-devices training inputs)")
		fleetShards  = flag.Int("fleet-shards", 0, "fleet serialization shards / worker count (0 = GOMAXPROCS)")
		fleetUnix    = flag.String("fleet-unix", "", "comma-separated unix socket paths accepting fleet ingest connections")
		fleetTCP     = flag.String("fleet-tcp", "", "TCP address accepting fleet ingest connections")
		fleetTenants = flag.String("fleet-tenants", "", "tenant roster file: one `id,token` line per home")
		fleetLogDir  = flag.String("fleet-eventlog-dir", "", "directory for per-tenant JSONL event logs (<id>.jsonl)")
	)
	flag.Parse()
	log.SetFlags(log.Ltime)

	if *verifyF {
		if *storeP == "" {
			fmt.Fprintln(os.Stderr, "behaviotd: -verify-store requires -store; see -h")
			return 2
		}
		return runVerifyStore(*storeP, os.Stdout)
	}

	storeFS, err := parseStoreFault(*storeFlt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 2
	}

	if *fleetMode {
		return runFleet(fleetOptions{
			listen:    *listen,
			shards:    *fleetShards,
			unix:      *fleetUnix,
			tcp:       *fleetTCP,
			tenants:   *fleetTenants,
			logDir:    *fleetLogDir,
			sim:       *sim,
			idle:      *idleP,
			devices:   *devsP,
			maxSkew:   *maxSkew,
			store:     *storeP,
			ckptIvl:   *ckptIvl,
			fullEvery: *fullEvery,
			storeFS:   storeFS,
			resume:    *resumeF,
		})
	}

	impair, err := chaos.ParseConfig(*impairS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 2
	}
	if *impairS != "" && !*sim {
		fmt.Fprintln(os.Stderr, "behaviotd: -impair only applies to the -sim feed; use -tolerant for damaged real captures")
		return 2
	}

	srv := &server{started: time.Now(), tolerant: *tolerant, resume: *resumeF}
	if *storeP != "" {
		srv.store, err = modelstore.Open(*storeP, modelstore.Options{
			Now:       func() int64 { return time.Now().Unix() },
			FullEvery: *fullEvery,
			FS:        storeFS,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "behaviotd:", err)
			return 1
		}
	} else if *resumeF {
		fmt.Fprintln(os.Stderr, "behaviotd: -resume requires -store; see -h")
		return 2
	}
	scfg := stream.Config{
		MaxSkew: *maxSkew,
		// record drops e.Flow before retaining anything, so the monitor
		// may recycle flow storage as soon as the callback returns.
		RecycleFlows: true,
		OnEvent:      func(e stream.Event) { srv.record(&e, nil) },
		OnDeviation:  func(d stream.Deviation) { srv.record(nil, &d) },
	}

	var feed func(*server) error
	if *sim {
		feed, err = setupSimulator(srv, scfg, *simRate, *replayP, impair)
	} else {
		if *idleP == "" || *devsP == "" || *replayP == "" {
			fmt.Fprintln(os.Stderr, "behaviotd: need -idle, -devices and -replay (or -sim); see -h")
			return 2
		}
		feed, err = setupReplay(srv, scfg, *idleP, *devsP, *replayP, *simRate)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}

	// The event log opens after setup: a resume will have restored the
	// high-water mark the file is truncated to.
	if *eventLog != "" {
		if err := srv.openEventLog(*eventLog); err != nil {
			fmt.Fprintln(os.Stderr, "behaviotd:", err)
			return 1
		}
		defer srv.eventLog.Close()
	}

	if *queueLen > 0 {
		// Batched hand-off: one monitor-lock acquisition per drained
		// batch instead of per packet. The sink owns the packets it
		// receives; pooled ones (and their wire buffers) go back to
		// their pools here — the recycle point of the ingest path.
		srv.queue = stream.NewBatchQueue(*queueLen, feedBatch, func(ps []*netparse.Packet) {
			srv.mu.Lock()
			for _, p := range ps {
				srv.monitor.Feed(p)
			}
			srv.mu.Unlock()
			for _, p := range ps {
				// PutBuf tolerates nil, so the detach-release pair stays
				// unconditional (poolcheck R1: balanced on every path).
				pcapio.PutBuf(p.DetachWire())
				netparse.PutPacket(p)
			}
		})
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /status", srv.handleStatus)
	mux.HandleFunc("GET /events", srv.handleEvents)
	mux.HandleFunc("GET /deviations", srv.handleDeviations)
	mux.HandleFunc("GET /metrics", srv.handleMetrics)

	// Checkpoint 1 lands before the first packet: a crash at any later
	// point recovers at least the trained models (a resumed run already
	// has a generation and skips this).
	if srv.store != nil && srv.storeGen.Load() == 0 {
		srv.checkpoint()
	}
	if srv.store != nil && *ckptIvl > 0 {
		tick := time.NewTicker(*ckptIvl)
		defer tick.Stop()
		go func() {
			for range tick.C {
				srv.ckptDue.Store(true)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *listen, Handler: mux}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()

	feedErr := make(chan error, 1)
	go func() { feedErr <- feed(srv) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("behaviotd listening on %s", *listen)

	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		srv.closeFeed()
	}

	for {
		select {
		case err := <-feedErr:
			if err != nil && !errors.Is(err, errStopped) {
				shutdown()
				fmt.Fprintln(os.Stderr, "behaviotd: feed failed:", err)
				return 1
			}
			log.Println("feed complete; daemon keeps serving status")
			feedErr = nil // completed; keep serving until a signal
		case s := <-sig:
			log.Printf("%s: shutting down", s)
			// Quiesce the feeder first: it drains the queue and writes
			// the final checkpoint at a record boundary, WITHOUT closing
			// the monitor — open flows and the open trace survive into
			// the snapshot so a -resume continues seamlessly.
			srv.stopping.Store(true)
			if feedErr != nil {
				select {
				case err := <-feedErr:
					if err != nil && !errors.Is(err, errStopped) {
						log.Printf("feed: %v", err)
					}
				case <-time.After(15 * time.Second):
					log.Println("feeder did not quiesce in 15s; shutting down anyway")
				}
			}
			shutdown()
			return 0
		case err := <-httpErr:
			if errors.Is(err, http.ErrServerClosed) {
				return 0
			}
			fmt.Fprintln(os.Stderr, "behaviotd: http server:", err)
			return 1
		}
	}
}

// closeFeed drains the queue (if any) and flushes the monitor.
func (s *server) closeFeed() {
	if s.queue != nil {
		s.queue.Close()
	}
	s.mu.Lock()
	if s.monitor != nil {
		s.monitor.Close()
	}
	s.mu.Unlock()
}

// feedPacket routes one decoded packet to the monitor, through the
// bounded queue when configured (backpressure discipline: replay
// producers wait rather than shed).
func (s *server) feedPacket(p *netparse.Packet) {
	if s.queue != nil {
		s.queue.Feed(p)
		return
	}
	s.mu.Lock()
	s.monitor.Feed(p)
	s.mu.Unlock()
}

// ingestRecord decodes one wire record into a pooled packet and feeds
// it. Decode failures are counted per error class and dropped — never
// fatal. buf, when non-nil, is the pooled record buffer backing data;
// it travels with the packet to the queue sink (the recycle point), or
// is recycled here on the direct path once Feed has consumed the
// packet synchronously.
func (s *server) ingestRecord(ts time.Time, data []byte, buf *[]byte) {
	p := netparse.GetPacket()
	if err := netparse.DecodeInto(p, data); err != nil {
		s.countParseError(err)
		netparse.PutPacket(p)
		pcapio.PutBuf(buf)
		return
	}
	p.Timestamp = ts
	p.AttachWire(buf)
	if s.queue != nil {
		s.queue.Feed(p) // sink recycles packet and buffer
		return
	}
	s.mu.Lock()
	s.monitor.Feed(p)
	s.mu.Unlock()
	pcapio.PutBuf(p.DetachWire())
	netparse.PutPacket(p)
}

func (s *server) countParseError(err error) {
	s.parseErrors.Add(1)
	class := netparse.ErrorClass(err)
	for i, c := range parseClasses {
		if c == class {
			s.parseByClass[i].Add(1)
			return
		}
	}
	s.parseByClass[len(parseClasses)-1].Add(1)
}

// record is the stream callback target. It runs while mu is held by the
// feeder, so it must only take ringMu.
func (s *server) record(e *stream.Event, d *stream.Deviation) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	if e != nil && e.Class == core.EventUser {
		// Drop the flow reference before retaining the event: the
		// monitor recycles flow storage once this callback returns
		// (Config.RecycleFlows), so the ring must not keep a pointer
		// into it. The handlers only serve scalar fields anyway.
		e.Flow = nil
		s.events = append(s.events, *e)
		if len(s.events) > ringSize {
			s.events = s.events[len(s.events)-ringSize:]
		}
		s.appendEventLog(eventLogLine{
			Type: "event", Time: e.Time, Device: e.Device,
			Label: e.Label, Confidence: e.Confidence,
		})
	}
	if d != nil {
		s.deviations = append(s.deviations, *d)
		if len(s.deviations) > ringSize {
			s.deviations = s.deviations[len(s.deviations)-ringSize:]
		}
		s.appendEventLog(eventLogLine{
			Type: "deviation", Time: d.Time, Device: d.Device,
			Kind: d.Kind.String(), Detail: d.Detail, Score: d.Score,
		})
		log.Printf("DEVIATION [%s] %s score=%.2f %s", d.Kind, d.Device, d.Score, d.Detail)
	}
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.monitor.Stats()
	s.mu.Unlock()
	body := map[string]any{
		"uptime_seconds":  time.Since(s.started).Seconds(),
		"stream_time":     st.StreamTime,
		"packets":         st.Packets,
		"flows":           st.Flows,
		"periodic":        st.Periodic,
		"user":            st.User,
		"aperiodic":       st.Aperiodic,
		"traces":          st.Traces,
		"deviations":      st.Deviations,
		"parse_errors":    s.parseErrors.Load(),
		"dropped_records": s.skippedRecords.Load(),
		"late_dropped":    st.LateDropped,
		"tolerant":        s.tolerant,
	}
	classes := map[string]int64{}
	for i, c := range parseClasses {
		if n := s.parseByClass[i].Load(); n > 0 {
			classes[c] = n
		}
	}
	if len(classes) > 0 {
		body["parse_errors_by_class"] = classes
	}
	if s.queue != nil {
		body["queue_dropped"] = s.queue.Dropped()
		body["queue_depth"] = s.queue.Depth()
	}
	if s.store != nil {
		ws := s.store.Stats()
		body["store_generation"] = s.storeGen.Load()
		body["checkpoints_total"] = s.checkpointsTotal.Load()
		body["checkpoint_failures_total"] = s.ckptFailuresTotal.Load()
		body["checkpoint_fulls_total"] = ws.Fulls
		body["checkpoint_deltas_total"] = ws.Deltas
		body["checkpoint_bytes_total"] = ws.FullBytes + ws.DeltaBytes
		if last := s.lastCkptUnix.Load(); last > 0 {
			age := time.Since(time.Unix(0, last)).Seconds()
			body["last_checkpoint_age_seconds"] = age
		}
	}
	writeJSON(w, body)
}

func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.ringMu.Lock()
	out := make([]map[string]any, len(s.events))
	for i, e := range s.events {
		out[i] = map[string]any{
			"time": e.Time, "device": e.Device,
			"label": e.Label, "confidence": e.Confidence,
		}
	}
	s.ringMu.Unlock()
	writeJSON(w, out)
}

func (s *server) handleDeviations(w http.ResponseWriter, r *http.Request) {
	s.ringMu.Lock()
	out := make([]map[string]any, len(s.deviations))
	for i, d := range s.deviations {
		out[i] = map[string]any{
			"time": d.Time, "kind": d.Kind.String(), "device": d.Device,
			"score": d.Score, "detail": d.Detail,
		}
	}
	s.ringMu.Unlock()
	writeJSON(w, out)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.monitor.Stats()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range []struct {
		name string
		val  int64
	}{
		{"behaviot_packets_total", st.Packets},
		{"behaviot_flows_total", st.Flows},
		{"behaviot_events_periodic_total", st.Periodic},
		{"behaviot_events_user_total", st.User},
		{"behaviot_events_aperiodic_total", st.Aperiodic},
		{"behaviot_traces_total", st.Traces},
		{"behaviot_deviations_total", st.Deviations},
		{"behaviot_parse_errors_total", s.parseErrors.Load()},
		{"behaviot_dropped_records_total", s.skippedRecords.Load()},
		{"behaviot_dropped_record_bytes_total", s.skippedBytes.Load()},
		{"behaviot_late_dropped_total", st.LateDropped},
	} {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.val)
	}
	fmt.Fprintf(w, "# TYPE behaviot_parse_errors_by_class_total counter\n")
	for i, c := range parseClasses {
		fmt.Fprintf(w, "behaviot_parse_errors_by_class_total{class=%q} %d\n", c, s.parseByClass[i].Load())
	}
	if s.queue != nil {
		fmt.Fprintf(w, "# TYPE behaviot_queue_dropped_total counter\nbehaviot_queue_dropped_total %d\n", s.queue.Dropped())
		fmt.Fprintf(w, "# TYPE behaviot_queue_depth gauge\nbehaviot_queue_depth %d\n", s.queue.Depth())
	}
	if s.store != nil {
		ws := s.store.Stats()
		fmt.Fprintf(w, "# TYPE behaviot_checkpoints_total counter\nbehaviot_checkpoints_total %d\n", s.checkpointsTotal.Load())
		fmt.Fprintf(w, "# TYPE behaviot_checkpoint_failures_total counter\nbehaviot_checkpoint_failures_total %d\n", s.ckptFailuresTotal.Load())
		fmt.Fprintf(w, "# TYPE behaviot_checkpoint_fulls_total counter\nbehaviot_checkpoint_fulls_total %d\n", ws.Fulls)
		fmt.Fprintf(w, "# TYPE behaviot_checkpoint_deltas_total counter\nbehaviot_checkpoint_deltas_total %d\n", ws.Deltas)
		fmt.Fprintf(w, "# TYPE behaviot_checkpoint_bytes_total counter\nbehaviot_checkpoint_bytes_total %d\n", ws.FullBytes+ws.DeltaBytes)
		fmt.Fprintf(w, "# TYPE behaviot_store_generation gauge\nbehaviot_store_generation %d\n", s.storeGen.Load())
		// Absent until the first checkpoint lands: emitting an age
		// computed from the zero value would report ~56 years of
		// staleness and trip any freshness alert at startup.
		if last := s.lastCkptUnix.Load(); last > 0 {
			age := time.Since(time.Unix(0, last)).Seconds()
			fmt.Fprintf(w, "# TYPE behaviot_last_checkpoint_age_seconds gauge\nbehaviot_last_checkpoint_age_seconds %g\n", age)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// setupSimulator trains on the bundled testbed and returns a feeder that
// streams a continuous synthetic day (with a device malfunction around
// hour 10 so the demo shows deviations). When replayPath is set the
// feeder replays that capture instead of the synthetic day; when impair
// is non-zero the synthetic day is serialized to wire records, damaged
// through the chaos operators, and fed back through the tolerant decode
// path. It runs pre-spawn: srv.monitor is written before the feeder
// goroutine or the HTTP server exists, so the guards do not apply yet.
func setupSimulator(srv *server, scfg stream.Config, rate float64, replayPath string, impair chaos.Config) (func(*server) error, error) {
	if replayPath != "" {
		// Simulator-trained models, real capture: preflight before the
		// ~10s training run so an unreadable file is an immediate
		// startup error, not a mid-feed surprise.
		if err := preflightPcap(replayPath); err != nil {
			return nil, err
		}
	}
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{
		tb.Device("TPLink Plug"), tb.Device("Ring Camera"),
		tb.Device("Gosund Bulb"), tb.Device("Echo Spot"),
	}
	acfg := flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()}
	srv.fingerprint = "behaviotd/v1|mode=sim|impair=" + impair.String()
	if replayPath != "" {
		crc, err := fileCRC(replayPath)
		if err != nil {
			return nil, fmt.Errorf("replay capture: %w", err)
		}
		srv.fingerprint += fmt.Sprintf("|replay=%08x", crc)
	}

	if !srv.tryRestore(acfg, scfg) {
		log.Println("sim mode: training on the bundled testbed simulator...")
		idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
		labeled := map[string][]*flows.Flow{}
		for _, s := range datasets.Activity(tb, 2, 12, 0) {
			for _, d := range devices {
				if s.Device == d.Name {
					labeled[s.Label] = append(labeled[s.Label], s.Flows...)
				}
			}
		}
		pipe, err := core.Train(idle, labeled, core.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("sim training: %w", err)
		}
		routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(7*24*time.Hour),
			datasets.RoutineConfig{Days: 1, RunsPerDay: 15, DirectPerDay: 3})
		var rfs []*flows.Flow
		names := map[string]bool{}
		for _, d := range devices {
			names[d.Name] = true
		}
		for _, f := range routine.Flows {
			if names[f.Device] {
				rfs = append(rfs, f)
			}
		}
		traces := pipe.TrainSystem(pipe.Classify(rfs), pfsm.Options{})
		pipe.Calibrate(traces)
		log.Printf("trained: %d periodic models, %d-state PFSM",
			len(pipe.Periodic.Models()), pipe.System.NumStates())
		srv.pipe = pipe
		srv.monitor = stream.NewMonitor(pipe, acfg, scfg)
	}

	if replayPath != "" {
		return func(s *server) error {
			return s.feedPcapFile(replayPath, rate)
		}, nil
	}

	return func(s *server) error {
		g := testbed.NewGenerator(tb, 99)
		start := datasets.DefaultStart.Add(30 * 24 * time.Hour)
		var streams [][]*netparse.Packet
		for _, d := range devices {
			streams = append(streams, g.BootstrapDNS(d, start.Add(-time.Minute)))
			streams = append(streams, g.PeriodicWindow(d, start, start.Add(24*time.Hour)))
		}
		// A user interaction and a malfunction to light up the dashboard.
		plug := tb.Device("TPLink Plug")
		streams = append(streams, g.Activity(plug, plug.Activity("on"), start.Add(2*time.Hour), 0))
		pkts := testbed.MergePackets(streams...)
		// Device malfunction: drop Gosund Bulb traffic after hour 10.
		cut := start.Add(10 * time.Hour)
		gosund := tb.Device("Gosund Bulb").IP
		kept := pkts[:0]
		for _, p := range pkts {
			if p.Timestamp.After(cut) && (p.SrcIP == gosund || p.DstIP == gosund) {
				continue
			}
			kept = append(kept, p)
		}
		if ops := impair.Ops(); len(ops) > 0 {
			return s.feedImpaired(kept, impair, rate)
		}
		log.Printf("replaying %d synthetic packets (24 simulated hours)", len(kept))
		if err := s.replayPackets(kept, rate); err != nil {
			return err
		}
		return s.finishFeed()
	}, nil
}

// finishFeed closes out a completed feed: flush everything through the
// monitor, then record a completion checkpoint so a restart serves the
// final counters without replaying anything.
func (s *server) finishFeed() error {
	s.closeFeed()
	s.checkpoint()
	return nil
}

// feedImpaired serializes packets to wire records, damages them through
// the chaos operators, and feeds the damaged capture back through the
// tolerant decode path — the self-contained robustness demo.
func (s *server) feedImpaired(pkts []*netparse.Packet, impair chaos.Config, rate float64) error {
	recs, err := datasets.EncodePackets(pkts)
	if err != nil {
		return fmt.Errorf("encoding sim feed: %w", err)
	}
	recs = chaos.Impair(recs, 99, impair)
	log.Printf("replaying %d impaired records (of %d synthetic packets; impair %s)",
		len(recs), len(pkts), impair)
	skip := s.skipRecords
	var prev time.Time
	for i, r := range recs {
		n := int64(i + 1)
		if n <= skip {
			prev = r.Time
			continue
		}
		if rate > 0 && !prev.IsZero() {
			if gap := r.Time.Sub(prev); gap > 0 {
				time.Sleep(time.Duration(float64(gap) / rate))
			}
		}
		prev = r.Time
		s.ingestRecord(r.Time, r.Data, nil)
		s.fedRecords.Store(n)
		if s.maybeCheckpoint() {
			return errStopped
		}
	}
	return s.finishFeed()
}

// setupReplay loads training captures and returns a feeder replaying the
// target capture. All load failures are returned (with context) so main
// can exit nonzero before the daemon starts serving. Like
// setupSimulator it runs pre-spawn, before any concurrent goroutine can
// observe srv.
func setupReplay(srv *server, scfg stream.Config, idlePath, devicesPath, replayPath string, rate float64) (func(*server) error, error) {
	deviceByIP, err := loadDevices(devicesPath)
	if err != nil {
		return nil, fmt.Errorf("loading device manifest: %w", err)
	}
	prefix := netip.MustParsePrefix("192.168.0.0/16")
	acfg := flows.Config{LocalPrefix: prefix, DeviceByIP: deviceByIP}

	// The fingerprint ties store snapshots to the exact inputs: models to
	// the training capture and device manifest, the feed cursor to the
	// replay capture. Any edit invalidates old generations.
	idleCRC, err := fileCRC(idlePath)
	if err != nil {
		return nil, fmt.Errorf("idle capture: %w", err)
	}
	devCRC, err := fileCRC(devicesPath)
	if err != nil {
		return nil, fmt.Errorf("device manifest: %w", err)
	}
	replayCRC, err := fileCRC(replayPath)
	if err != nil {
		return nil, fmt.Errorf("replay capture: %w", err)
	}
	srv.fingerprint = fmt.Sprintf("behaviotd/v1|mode=replay|idle=%08x|devices=%08x|replay=%08x",
		idleCRC, devCRC, replayCRC)

	if !srv.tryRestore(acfg, scfg) {
		idlePkts, err := readPcap(idlePath)
		if err != nil {
			return nil, fmt.Errorf("reading idle capture: %w", err)
		}
		a := flows.NewAssembler(acfg)
		for _, p := range idlePkts {
			a.Add(p)
		}
		idle := a.Flows()
		log.Printf("idle training: %d packets → %d flows", len(idlePkts), len(idle))
		pipe, err := core.Train(idle, map[string][]*flows.Flow{}, core.DefaultConfig())
		if err != nil {
			return nil, fmt.Errorf("training on idle capture: %w", err)
		}
		srv.pipe = pipe
		srv.monitor = stream.NewMonitor(pipe, acfg, scfg)
	}
	// Preflight the replay capture so an unreadable file fails startup
	// with a clear message instead of killing the feeder mid-flight.
	if err := preflightPcap(replayPath); err != nil {
		return nil, err
	}
	return func(s *server) error {
		return s.feedPcapFile(replayPath, rate)
	}, nil
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

// openWithRetry opens a file with exponential backoff: transient
// filesystem hiccups (NFS gateway storage, log rotation races) get
// three more chances before the feeder gives up.
func openWithRetry(path string) (*os.File, error) {
	backoff := 100 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			log.Printf("open %s failed (%v), retrying in %s", path, lastErr, backoff)
			time.Sleep(backoff)
			backoff *= 2
		}
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// feedPcapFile streams a capture file into the monitor record by
// record. With -tolerant the reader resyncs past corrupt records
// (counted as dropped) and malformed frames are counted per class; in
// strict mode the first damaged record aborts the feed with an error.
func (s *server) feedPcapFile(path string, rate float64) error {
	f, err := openWithRetry(path)
	if err != nil {
		return fmt.Errorf("replay capture: %w", err)
	}
	defer f.Close()
	r, err := pcapio.NewReader(bufio.NewReader(f))
	if err != nil {
		return fmt.Errorf("replay capture %s: %w", path, err)
	}
	r.SetTolerant(s.tolerant)
	log.Printf("replaying %s (tolerant=%v)", path, s.tolerant)
	skip := s.skipRecords
	var n int64
	var prev time.Time
	first := true
	for {
		// Each record is read into a pooled buffer that stays attached
		// to the decoded packet until the queue sink (or the direct
		// path, right below) recycles it — the steady-state loop
		// allocates nothing.
		buf := pcapio.GetBuf()
		ts, data, err := r.ReadPacketInto(*buf)
		if cap(data) > cap(*buf) {
			*buf = data[:cap(data)] // keep a grown buffer in the pool
		}
		s.skippedRecords.Store(r.Skipped())
		s.skippedBytes.Store(r.SkippedBytes())
		if errors.Is(err, io.EOF) {
			pcapio.PutBuf(buf)
			break
		}
		if err != nil {
			pcapio.PutBuf(buf)
			return fmt.Errorf("reading %s: %w", path, err)
		}
		// The cursor counts records the reader returned, including frames
		// that fail to decode: their effect (parse counters) is restored
		// from the daemon snapshot, so a resume skips them without
		// re-decoding.
		n++
		if n <= skip {
			prev, first = ts, false
			pcapio.PutBuf(buf)
			continue
		}
		if rate > 0 && !first {
			if gap := ts.Sub(prev); gap > 0 {
				time.Sleep(time.Duration(float64(gap) / rate))
			}
		}
		prev, first = ts, false
		// Strict mode still skips undecodable frames, as the historical
		// reader did and as a gateway would (only the reader's resync
		// behavior differs under -tolerant); ingestRecord counts them.
		s.ingestRecord(ts, data, buf)
		s.fedRecords.Store(n)
		if s.maybeCheckpoint() {
			return errStopped
		}
	}
	return s.finishFeed()
}

// replayPackets feeds packets into the monitor, optionally paced at
// rate× capture speed (0 = unpaced). Each packet is one feed record:
// the cursor advances after it is fed, checkpoints land only at record
// boundaries, and a resume skips the already-consumed prefix.
func (s *server) replayPackets(pkts []*netparse.Packet, rate float64) error {
	skip := s.skipRecords
	var prev time.Time
	for i, p := range pkts {
		n := int64(i + 1)
		if n <= skip {
			prev = p.Timestamp
			continue
		}
		if rate > 0 && !prev.IsZero() {
			if gap := p.Timestamp.Sub(prev); gap > 0 {
				time.Sleep(time.Duration(float64(gap) / rate))
			}
		}
		prev = p.Timestamp
		s.feedPacket(p)
		s.fedRecords.Store(n)
		if s.maybeCheckpoint() {
			return errStopped
		}
	}
	return nil
}

func readPcap(path string) ([]*netparse.Packet, error) {
	f, err := openWithRetry(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := pcapio.NewReader(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	var out []*netparse.Packet
	for {
		ts, data, err := r.ReadPacket()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		p, err := netparse.Decode(data)
		if err != nil {
			continue // skip undecodable frames, as a gateway would
		}
		p.Payload = append([]byte(nil), p.Payload...)
		p.Timestamp = ts
		out = append(out, p)
	}
}

func loadDevices(path string) (map[netip.Addr]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[netip.Addr]string{}
	sc := bufio.NewScanner(f)
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || first {
			first = false
			continue
		}
		parts := strings.SplitN(line, ",", 4)
		if len(parts) < 2 {
			continue
		}
		ip, err := netip.ParseAddr(parts[0])
		if err != nil {
			return nil, fmt.Errorf("%s: bad IP %q", path, parts[0])
		}
		out[ip] = parts[1]
	}
	return out, sc.Err()
}
