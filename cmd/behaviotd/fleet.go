package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"behaviot/internal/fleet"
	"behaviot/internal/fleet/listener"
)

// runFleet is the multi-tenant entry point: load (or train) one
// pipeline, stand up the tenant-sharded fleet daemon, accept ingest
// sources over unix sockets and TCP, and serve the REST control plane.
// SIGTERM/SIGINT sever ingest sources (each finishes the batch it is
// ingesting), finalize every tenant's monitor, land final checkpoints,
// and exit 0 — the clean drain the fleet-soak CI gate asserts.
func runFleet(o options) int {
	if o.fleetUnix == "" && o.fleetTCP == "" {
		fmt.Fprintln(os.Stderr, "behaviotd: fleet mode needs at least one ingest listener (-fleet-unix or -fleet-tcp); see -h")
		return 2
	}
	if o.fleetTenants == "" {
		fmt.Fprintln(os.Stderr, "behaviotd: fleet mode needs a tenant roster (-fleet-tenants); see -h")
		return 2
	}
	if !o.sim && (o.idle == "" || o.devices == "") {
		fmt.Fprintln(os.Stderr, "behaviotd: fleet mode needs training inputs: -sim, or -idle and -devices; see -h")
		return 2
	}
	roster, err := loadTenantsFile(o.fleetTenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}

	acfg, inputs, err := trainingInputs(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}
	// Models are tied to their training inputs; tenancy lives in store
	// paths only. v2 is the layout with the model stored once under
	// model/ and no pipeline.snap in tenant generations: a v1 store is a
	// cold start.
	fingerprint := "behaviotd/v2|mode=fleet" + inputs
	pipeSnap, err := loadOrTrain(o, acfg, inputs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}
	cfg := o.fleetConfig(pipeSnap, acfg, fingerprint)
	cfg.Shards = o.fleetShards
	cfg.EventLogDir = o.fleetLogDir
	d, err := fleet.New(cfg)
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
	if o.fleetUnix != "" {
		for _, path := range strings.Split(o.fleetUnix, ",") {
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
	if o.fleetTCP != "" {
		l, err := net.Listen("tcp", o.fleetTCP)
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
	httpSrv, httpAddr, httpErr, err := serveHTTP(o.listen, mux)
	if err != nil {
		fmt.Fprintln(os.Stderr, "behaviotd:", err)
		return 1
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("fleet ready: %d tenants across %d shards; ingest on %s; control plane on %s",
		d.TenantCount(), d.Shards(), strings.Join(ingestAddrs, ", "), httpAddr)

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
			shutdownHTTP(httpSrv)
			// Post-drain accounting, one line per fleet: the soak gate
			// parses it and checks the sums against what its sources sent.
			var received, fed, perr int64
			for _, tn := range d.List() {
				st := tn.Status()
				received += st["received_records"].(int64)
				fed += st["fed_records"].(int64)
				perr += st["parse_errors"].(int64)
			}
			// Nothing can be shed; last reader of shed=: bench/daemon.go:158.
			log.Printf("fleet drained: tenants=%d received=%d fed=%d parse_errors=%d shed=0",
				d.TenantCount(), received, fed, perr)
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
