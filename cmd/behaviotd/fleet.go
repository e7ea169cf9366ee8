package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/faultfs"
	"behaviot/internal/fleet"
	"behaviot/internal/fleet/listener"
	"behaviot/internal/flows"
	"behaviot/internal/pfsm"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// fleetOptions carries the flag values runFleet consumes (both the
// fleet-specific flags and the shared ones it reuses).
type fleetOptions struct {
	listen    string // control-plane HTTP address (shared -listen)
	shards    int
	unix      string // comma-separated unix socket paths
	tcp       string // TCP ingest listen address
	tenants   string // tenants roster file (id,token per line)
	logDir    string // per-tenant event log directory
	sim       bool
	idle      string
	devices   string
	maxSkew   time.Duration
	store     string
	ckptIvl   time.Duration
	fullEvery int        // -store-full-every: differential checkpoint cadence
	storeFS   faultfs.FS // parsed -store-fault injector, nil = real filesystem
	resume    bool
}

// runFleet is the multi-tenant entry point: train (or load) one
// pipeline, stand up the tenant-sharded fleet daemon, accept ingest
// sources over unix sockets and TCP, and serve the REST control plane.
// SIGTERM/SIGINT sever ingest sources (each finishes the batch it is
// ingesting), finalize every tenant's monitor, land final checkpoints,
// and exit 0 — the clean drain the fleet-soak CI gate asserts.
func runFleet(opts fleetOptions) int {
	if opts.unix == "" && opts.tcp == "" {
		fmt.Fprintln(os.Stderr, "behaviotd: fleet mode needs at least one ingest listener (-fleet-unix or -fleet-tcp); see -h")
		return 2
	}
	if opts.tenants == "" {
		fmt.Fprintln(os.Stderr, "behaviotd: fleet mode needs a tenant roster (-fleet-tenants); see -h")
		return 2
	}
	roster, err := loadTenantsFile(opts.tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}

	pipeSnap, acfg, fingerprint, err := fleetTrain(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}

	ckptIvl := opts.ckptIvl
	if opts.store == "" {
		ckptIvl = 0
	}
	d, err := fleet.New(fleet.Config{
		Shards:   opts.shards,
		PipeSnap: pipeSnap,
		// Same fingerprint rules as single-tenant mode: models are tied
		// to their training inputs; tenancy lives in store paths only.
		Fingerprint:        fingerprint,
		AssemblerCfg:       acfg,
		StreamCfg:          stream.Config{MaxSkew: opts.maxSkew},
		StoreRoot:          opts.store,
		StoreFullEvery:     opts.fullEvery,
		StoreFS:            opts.storeFS,
		EventLogDir:        opts.logDir,
		CheckpointInterval: ckptIvl,
		Resume:             opts.resume,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}
	for _, id := range sortedKeys(roster) {
		if _, err := d.Add(id, roster[id]); err != nil {
			fmt.Fprintf(os.Stderr, "behaviotd: tenant %s: %v\n", id, err)
			return 1
		}
	}

	srv := listener.New(d)
	serveErr := make(chan error, 8)
	var ingestAddrs []string
	if opts.unix != "" {
		for _, path := range strings.Split(opts.unix, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			// A stale socket from a previous run would fail the bind.
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "behaviotd:", err)
				return 1
			}
			l, err := net.Listen("unix", path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "behaviotd:", err)
				return 1
			}
			ingestAddrs = append(ingestAddrs, "unix:"+path)
			go func() { serveErr <- srv.Serve(l) }()
		}
	}
	if opts.tcp != "" {
		l, err := net.Listen("tcp", opts.tcp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "behaviotd:", err)
			return 1
		}
		ingestAddrs = append(ingestAddrs, "tcp:"+l.Addr().String())
		go func() { serveErr <- srv.Serve(l) }()
	}

	// /healthz is the fleet's own (degraded/quarantined rollup), mounted
	// by RegisterHandlers alongside the rest of the control plane.
	mux := http.NewServeMux()
	d.RegisterHandlers(mux)
	httpLn, err := net.Listen("tcp", opts.listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: mux}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(httpLn) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("fleet ready: %d tenants across %d shards; ingest on %s; control plane on %s",
		d.TenantCount(), d.Shards(), strings.Join(ingestAddrs, ", "), httpLn.Addr())

	for {
		select {
		case s := <-sig:
			log.Printf("%s: draining fleet", s)
			// Sever ingest first (no new records), then drain: every
			// accepted record reaches its monitor and every tenant lands
			// a final checkpoint before the process exits.
			if err := srv.Close(); err != nil {
				log.Printf("ingest close: %v", err)
			}
			if err := d.Close(); err != nil {
				log.Printf("fleet close: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := httpSrv.Shutdown(ctx); err != nil {
				log.Printf("http shutdown: %v", err)
			}
			cancel()
			// Post-drain accounting, one line per fleet: the soak gate
			// parses it and checks the sums against what its sources sent.
			var received, fed, perr, shed int64
			for _, tn := range d.List() {
				st := tn.Status()
				received += st["received_records"].(int64)
				fed += st["fed_records"].(int64)
				perr += st["parse_errors"].(int64)
				shed += st["queue_shed"].(int64)
			}
			log.Printf("fleet drained: tenants=%d received=%d fed=%d parse_errors=%d shed=%d",
				d.TenantCount(), received, fed, perr, shed)
			return 0
		case err := <-serveErr:
			if err != nil && err != listener.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "behaviotd: ingest listener:", err)
				return 1
			}
		case err := <-httpErr:
			if err == http.ErrServerClosed {
				return 0
			}
			fmt.Fprintln(os.Stderr, "behaviotd: http server:", err)
			return 1
		}
	}
}

// fleetTrain produces the fleet's shared trained-pipeline snapshot:
// from the bundled simulator (-sim, same training as single-tenant sim
// mode) or from an idle capture and device manifest (-idle/-devices,
// same training as replay mode minus the replay).
func fleetTrain(opts fleetOptions) (pipeSnap []byte, acfg flows.Config, fingerprint string, err error) {
	if opts.sim {
		tb := testbed.New()
		devices := []*testbed.DeviceProfile{
			tb.Device("TPLink Plug"), tb.Device("Ring Camera"),
			tb.Device("Gosund Bulb"), tb.Device("Echo Spot"),
		}
		acfg = flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()}
		fingerprint = "behaviotd/v1|mode=fleet-sim"
		log.Println("fleet: training on the bundled testbed simulator...")
		idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
		labeled := map[string][]*flows.Flow{}
		for _, s := range datasets.Activity(tb, 2, 12, 0) {
			for _, dv := range devices {
				if s.Device == dv.Name {
					labeled[s.Label] = append(labeled[s.Label], s.Flows...)
				}
			}
		}
		pipe, err := core.Train(idle, labeled, core.DefaultConfig())
		if err != nil {
			return nil, flows.Config{}, "", fmt.Errorf("fleet sim training: %w", err)
		}
		routine := datasets.Routine(tb, 3, datasets.DefaultStart.Add(7*24*time.Hour),
			datasets.RoutineConfig{Days: 1, RunsPerDay: 15, DirectPerDay: 3})
		var rfs []*flows.Flow
		names := map[string]bool{}
		for _, dv := range devices {
			names[dv.Name] = true
		}
		for _, f := range routine.Flows {
			if names[f.Device] {
				rfs = append(rfs, f)
			}
		}
		pipe.Calibrate(pipe.TrainSystem(pipe.Classify(rfs), pfsm.Options{}))
		return core.MarshalPipeline(pipe), acfg, fingerprint, nil
	}

	if opts.idle == "" || opts.devices == "" {
		return nil, flows.Config{}, "", fmt.Errorf("fleet mode needs training inputs: -sim, or -idle and -devices")
	}
	deviceByIP, err := loadDevices(opts.devices)
	if err != nil {
		return nil, flows.Config{}, "", fmt.Errorf("loading device manifest: %w", err)
	}
	acfg = flows.Config{
		LocalPrefix: netip.MustParsePrefix("192.168.0.0/16"),
		DeviceByIP:  deviceByIP,
	}
	idleCRC, err := fileCRC(opts.idle)
	if err != nil {
		return nil, flows.Config{}, "", fmt.Errorf("idle capture: %w", err)
	}
	devCRC, err := fileCRC(opts.devices)
	if err != nil {
		return nil, flows.Config{}, "", fmt.Errorf("device manifest: %w", err)
	}
	fingerprint = fmt.Sprintf("behaviotd/v1|mode=fleet|idle=%08x|devices=%08x", idleCRC, devCRC)

	idlePkts, err := readPcap(opts.idle)
	if err != nil {
		return nil, flows.Config{}, "", fmt.Errorf("reading idle capture: %w", err)
	}
	a := flows.NewAssembler(acfg)
	for _, p := range idlePkts {
		a.Add(p)
	}
	idle := a.Flows()
	log.Printf("fleet idle training: %d packets → %d flows", len(idlePkts), len(idle))
	pipe, err := core.Train(idle, map[string][]*flows.Flow{}, core.DefaultConfig())
	if err != nil {
		return nil, flows.Config{}, "", fmt.Errorf("training on idle capture: %w", err)
	}
	return core.MarshalPipeline(pipe), acfg, fingerprint, nil
}

// loadTenantsFile reads the -fleet-tenants roster.
func loadTenantsFile(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	roster, err := fleet.ParseTenantsFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(roster) == 0 {
		return nil, fmt.Errorf("%s: no tenants in roster", path)
	}
	return roster, nil
}

// sortedKeys returns a map's keys in sorted order (tenants must be
// added in a deterministic order, never map-iteration order).
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
