package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"behaviot/internal/chaos"
	"behaviot/internal/datasets"
	"behaviot/internal/fleet"
	"behaviot/internal/netparse"
	"behaviot/internal/pcapio"
	"behaviot/internal/testbed"
)

// homeID names single-home mode's one tenant: its store namespace
// (-store DIR/tenants/home/), its metric label and its /tenants/home/
// endpoints.
const homeID = "home"

// errStopped is returned by a feeder that was told to stop before the
// end of its capture.
var errStopped = errors.New("feed stopped for shutdown")

// runHome is single-home mode: a one-shard fleet.Daemon holding the
// tenant homeID, fed in process by one feeder goroutine. The feeder is a
// source like any fleet connection (lock order feeder → shardMu → ringMu
// → feedHub.mu), so checkpoints, the event log, health supervision and
// the HTTP surface are the fleet's own.
//
// A signal mid-capture stops the feeder at a record boundary and
// Suspends the home — a checkpoint WITHOUT finalizing the monitor, so
// open flows and the open trace survive into the snapshot and -resume
// continues them. The end of the capture instead Finalizes and
// checkpoints, and the daemon keeps serving status until signalled.
func runHome(o options) int {
	impair, err := chaos.ParseConfig(o.impair)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 2
	}
	switch {
	case o.impair != "" && !o.sim:
		fmt.Fprintln(os.Stderr, "behaviotd: -impair only applies to the -sim feed; use -tolerant for damaged real captures")
		return 2
	case !o.sim && (o.idle == "" || o.devices == "" || o.replay == ""):
		fmt.Fprintln(os.Stderr, "behaviotd: need -idle, -devices and -replay (or -sim); see -h")
		return 2
	case o.resume && o.store == "":
		fmt.Fprintln(os.Stderr, "behaviotd: -resume requires -store; see -h")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}

	// The fingerprint ties store generations to the exact inputs: models
	// to the training inputs, the cursor to the feed. v3 is the layout
	// with the model stored once under model/ and a tenant generation
	// holding only monitor.snap (timer anchors included) and tenant.snap:
	// a store written under v2 (pipeline.snap in every generation) or by
	// the v1 single-tenant daemon is not read, so it is a cold start.
	acfg, inputs, err := trainingInputs(o)
	if err != nil {
		return fail(err)
	}
	fingerprint := "behaviotd/v3|mode=home" + inputs
	if o.sim {
		fingerprint += "|impair=" + impair.String()
	}
	if o.replay != "" {
		// Preflight before a ~10s training run so an unreadable capture
		// is an immediate startup error, not a mid-feed surprise.
		if err := preflightPcap(o.replay); err != nil {
			return fail(err)
		}
		crc, err := fileCRC(o.replay)
		if err != nil {
			return fail(fmt.Errorf("replay capture: %w", err))
		}
		fingerprint += fmt.Sprintf("|replay=%08x", crc)
	}

	pipeSnap, err := loadOrTrain(o, acfg, fingerprint)
	if err != nil {
		return fail(err)
	}
	cfg := o.fleetConfig(pipeSnap, acfg, fingerprint)
	cfg.Shards = 1
	cfg.EventLogFile = o.eventLog
	d, err := fleet.New(cfg)
	if err != nil {
		return fail(err)
	}
	// The token authenticates socket sources; single-home mounts no
	// listener, so nothing ever presents it.
	home, err := d.Add(homeID, "in-process")
	if err != nil {
		return fail(err)
	}
	f := &feeder{home: home, rate: o.simRate, stop: make(chan struct{})}

	httpSrv, addr, httpErr, err := serveHTTP(o.listen, homeMux(d, f, o.tolerant))
	if err != nil {
		return fail(err)
	}
	log.Printf("behaviotd listening on %s", addr)

	feedErr := make(chan error, 1)
	go func() { feedErr <- f.run(o, impair) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	shutdown := func() {
		home.Suspend()
		if err := d.Close(); err != nil {
			log.Printf("fleet close: %v", err)
		}
		shutdownHTTP(httpSrv)
	}
	for {
		select {
		case err := <-feedErr:
			if err != nil {
				shutdown()
				fmt.Fprintln(os.Stderr, "behaviotd: feed failed:", err)
				return 1
			}
			log.Println("feed complete; daemon keeps serving status")
			feedErr = nil // completed; keep serving until a signal
		case s := <-sig:
			log.Printf("%s: shutting down", s)
			close(f.stop)
			if feedErr != nil {
				if err := <-feedErr; err != nil && !errors.Is(err, errStopped) {
					log.Printf("feed: %v", err)
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

// homeMux is the fleet control plane plus single-home's root aliases:
// /status, /events and /deviations answer for the one tenant, and
// /metrics gains the capture reader's resync damage, which no tenant
// counter sees (the reader drops those bytes before a record exists).
func homeMux(d *fleet.Daemon, f *feeder, tolerant bool) http.Handler {
	control := http.NewServeMux()
	d.RegisterHandlers(control)
	alias := func(path string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			r2 := r.Clone(r.Context())
			r2.URL.Path = path
			control.ServeHTTP(w, r2)
		}
	}
	started := time.Now()
	mux := http.NewServeMux()
	mux.Handle("/", control)
	mux.HandleFunc("GET /events", alias("/tenants/"+homeID+"/events"))
	mux.HandleFunc("GET /deviations", alias("/tenants/"+homeID+"/deviations"))
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		body := f.home.Status()
		body["uptime_seconds"] = time.Since(started).Seconds()
		body["dropped_records"] = f.droppedRecords.Load()
		body["tolerant"] = tolerant
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(body); err != nil {
			log.Printf("/status: %v", err)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		control.ServeHTTP(w, r)
		fmt.Fprintf(w, "# TYPE behaviot_dropped_records_total counter\nbehaviot_dropped_records_total %d\n", f.droppedRecords.Load())
		fmt.Fprintf(w, "# TYPE behaviot_dropped_record_bytes_total counter\nbehaviot_dropped_record_bytes_total %d\n", f.droppedBytes.Load())
	})
	return mux
}

// feeder is single-home mode's one ingest source: it reads records from
// a capture file or the synthetic day, skips the ones the home already
// consumed before a restart, paces the rest, and hands each to
// Tenant.Ingest.
type feeder struct {
	home *fleet.Tenant
	rate float64       // capture-speed multiplier; 0 = unpaced
	stop chan struct{} // closed to stop at the next record boundary

	// What the tolerant capture reader resynced past. Not checkpointed:
	// a resumed feeder re-reads the capture from the start and the reader
	// recounts the same damage while it fast-forwards.
	droppedRecords atomic.Int64
	droppedBytes   atomic.Int64
}

// nextRecord returns the next record in capture order, io.EOF after the
// last. data is valid until the following call.
type nextRecord func() (ts time.Time, data []byte, err error)

// run feeds the configured capture to the home until it ends (nil), the
// feeder is stopped (errStopped), or reading or ingest fails.
func (f *feeder) run(o options, impair chaos.Config) error {
	if o.replay == "" {
		next, err := simDay(impair)
		if err != nil {
			return err
		}
		return f.feed(next)
	}
	file, err := openWithRetry(o.replay)
	if err != nil {
		return fmt.Errorf("replay capture: %w", err)
	}
	defer file.Close()
	r, err := pcapio.NewReader(bufio.NewReader(file))
	if err != nil {
		return fmt.Errorf("replay capture %s: %w", o.replay, err)
	}
	// With -tolerant the reader resyncs past corrupt records (counted as
	// dropped); in strict mode the first damaged record aborts the feed.
	// Frames that merely fail to decode are never fatal in either mode —
	// the tenant counts them per class, as a gateway would.
	r.SetTolerant(o.tolerant)
	log.Printf("replaying %s (tolerant=%v)", o.replay, o.tolerant)
	var buf []byte // reused for every record: the steady-state loop allocates nothing
	return f.feed(func() (time.Time, []byte, error) {
		ts, data, err := r.ReadPacketInto(buf)
		if cap(data) > cap(buf) {
			buf = data[:cap(data)]
		}
		f.droppedRecords.Store(r.Skipped())
		f.droppedBytes.Store(r.SkippedBytes())
		if err != nil && !errors.Is(err, io.EOF) {
			err = fmt.Errorf("reading %s: %w", o.replay, err)
		}
		return ts, data, err
	})
}

// feed is the one feeder loop. The home's received_records is the
// cursor: it counts every record handed to Ingest, decodable or not, and
// is checkpointed with the monitor state it produced, so skipping that
// many records puts a resumed feeder exactly where the checkpoint was
// taken. Interval checkpoints are the shard housekeeper's and land
// between two Ingest calls, i.e. at record boundaries.
func (f *feeder) feed(next nextRecord) error {
	skip := f.home.Status()["received_records"].(int64)
	if skip == 0 {
		// A first generation before the first record: the store holds a
		// resumable generation from the start of the feed.
		f.home.Checkpoint()
	} else {
		log.Printf("fast-forwarding the feed past %d checkpointed records", skip)
	}
	var (
		n     int64
		prev  time.Time
		pace  *time.Timer
		batch [1]fleet.Record
	)
	for {
		select {
		case <-f.stop:
			return errStopped
		default:
		}
		ts, data, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if n++; n > skip {
			if gap := ts.Sub(prev); f.rate > 0 && n > 1 && gap > 0 {
				wait := time.Duration(float64(gap) / f.rate)
				if pace == nil {
					pace = time.NewTimer(wait)
					defer pace.Stop()
				} else {
					pace.Reset(wait)
				}
				select {
				case <-f.stop:
					return errStopped // the record was read, not ingested: a resume reads it again
				case <-pace.C:
				}
			}
			batch[0] = fleet.Record{Time: ts, Data: data}
			if _, err := f.home.Ingest(batch[:]); err != nil {
				return err
			}
		}
		prev = ts
	}
	f.home.Finalize()
	f.home.Checkpoint()
	return nil
}

// simDay synthesizes the -sim feed: 24 simulated hours of the simulator
// home with one user interaction, and a device malfunction from hour 10
// so the demo shows deviations. The packets are serialized to wire
// records — the same decode path a capture takes — and, when impair is
// non-zero, damaged through the chaos operators first.
func simDay(impair chaos.Config) (nextRecord, error) {
	tb, devices := simHome()
	g := testbed.NewGenerator(tb, 99)
	start := datasets.DefaultStart.Add(30 * 24 * time.Hour)
	var streams [][]*netparse.Packet
	for _, d := range devices {
		streams = append(streams, g.BootstrapDNS(d, start.Add(-time.Minute)))
		streams = append(streams, g.PeriodicWindow(d, start, start.Add(24*time.Hour)))
	}
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
	recs, err := datasets.EncodePackets(kept)
	if err != nil {
		return nil, fmt.Errorf("encoding sim feed: %w", err)
	}
	if len(impair.Ops()) > 0 {
		recs = chaos.Impair(recs, 99, impair)
	}
	log.Printf("replaying %d synthetic records (24 simulated hours; impair %s)", len(recs), impair)
	return func() (time.Time, []byte, error) {
		if len(recs) == 0 {
			return time.Time{}, nil, io.EOF
		}
		r := recs[0]
		recs = recs[1:]
		return r.Time, r.Data, nil
	}, nil
}
