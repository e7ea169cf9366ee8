package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/fleet/listener"
	"behaviot/internal/modelstore"
	"behaviot/internal/pcapio"
	"behaviot/internal/testbed"
)

// soakTenants is the fleet size the soak gate runs at: large enough
// that shard placement, per-tenant queues, and the drain path are all
// genuinely concurrent, small enough to stay inside a CI timeout.
const soakTenants = 120

// soakStream encodes one replay stream for the soak senders to push
// over the wire — valid records, so parse_errors must stay zero.
func soakStream(t *testing.T) []pcapio.Record {
	t.Helper()
	tb := testbed.New()
	g := testbed.NewGenerator(tb, 47)
	plug := tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(3 * 24 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.PeriodicWindow(plug, start, start.Add(4*time.Hour)),
	)
	recs, err := datasets.EncodePackets(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 100 {
		t.Fatalf("soak stream has only %d records", len(recs))
	}
	return recs
}

// writeTenantsFile writes a roster of soakTenants `id,token` lines.
func writeTenantsFile(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < soakTenants; i++ {
		fmt.Fprintf(&sb, "home-%03d,tok-%03d\n", i, i)
	}
	path := filepath.Join(dir, "tenants.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var drainedRe = regexp.MustCompile(
	`fleet drained: tenants=(\d+) received=(\d+) fed=(\d+) parse_errors=(\d+) shed=(\d+)`)

// TestFleetSoakSigtermDrain is the fleet half of the soak gate: a real
// behaviotd subprocess hosting soakTenants homes over a unix socket is
// SIGTERMed while half its sources are still mid-stream. The daemon
// must sever ingest, drain every accepted record into its tenant's
// monitor, land a final checkpoint for every tenant, and exit 0 — and
// its post-drain counter sums must reconcile exactly with what the
// senders pushed.
func TestFleetSoakSigtermDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	dir := t.TempDir()
	idle, devices, _ := writeReplayFixtures(t, dir)
	roster := writeTenantsFile(t, dir)
	store := filepath.Join(dir, "store")
	logDir := filepath.Join(dir, "logs")
	sock := filepath.Join(dir, "ingest.sock")
	recs := soakStream(t)

	proc := startDaemon(t, dir,
		"-fleet",
		"-fleet-shards", "4",
		"-fleet-unix", sock,
		"-fleet-tenants", roster,
		"-fleet-eventlog-dir", logDir,
		"-idle", idle, "-devices", devices,
		"-store", store, "-checkpoint-interval", "1h",
		"-listen", "127.0.0.1:0",
	)
	proc.waitForLog(t, "fleet ready", 120*time.Second)

	// First half of the fleet: sources that run to completion — send a
	// full stream, half-close, and demand an exact ack before SIGTERM.
	const completers = soakTenants / 2
	var wg sync.WaitGroup
	for i := 0; i < completers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := listener.Dial("unix", sock,
				fmt.Sprintf("home-%03d", i), fmt.Sprintf("tok-%03d", i))
			if err != nil {
				t.Errorf("tenant %03d: %v", i, err)
				return
			}
			for _, r := range recs {
				if err := s.Send(r.Time, r.Data); err != nil {
					t.Errorf("tenant %03d: %v", i, err)
					return
				}
			}
			consumed, err := s.Close()
			if err != nil {
				t.Errorf("tenant %03d: close: %v", i, err)
				return
			}
			if consumed != int64(len(recs)) {
				t.Errorf("tenant %03d: server acked %d records, sent %d", i, consumed, len(recs))
			}
		}(i)
	}

	// Second half: sources that never stop — they loop the stream until
	// the drain severs their connection, so the SIGTERM genuinely lands
	// mid-stream under backpressure. Each reports an upper bound on what
	// it pushed (its last writes may never have left the socket buffer).
	var streamerSent atomic.Int64
	var swg sync.WaitGroup
	for i := completers; i < soakTenants; i++ {
		swg.Add(1)
		go func(i int) {
			defer swg.Done()
			s, err := listener.Dial("unix", sock,
				fmt.Sprintf("home-%03d", i), fmt.Sprintf("tok-%03d", i))
			if err != nil {
				t.Errorf("tenant %03d: %v", i, err)
				return
			}
			defer s.Abort()
			for k := 0; ; k++ {
				r := recs[k%len(recs)]
				if err := s.Send(r.Time, r.Data); err != nil {
					streamerSent.Add(s.Sent())
					return
				}
			}
		}(i)
	}

	wg.Wait() // every completer has its exact ack in hand
	proc.terminate(t)
	swg.Wait() // the drain severed every in-flight source
	proc.waitForLog(t, "fleet drained", 10*time.Second)

	logData, err := os.ReadFile(proc.logPath)
	if err != nil {
		t.Fatal(err)
	}
	m := drainedRe.FindStringSubmatch(string(logData))
	if m == nil {
		t.Fatalf("no drain summary in daemon log:\n%s", logData)
	}
	atoi := func(s string) int64 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("drain summary field %q: %v", s, err)
		}
		return n
	}
	tenants, received, fed, perr := atoi(m[1]), atoi(m[2]), atoi(m[3]), atoi(m[4])

	if tenants != soakTenants {
		t.Errorf("drained %d tenants, want %d", tenants, soakTenants)
	}
	if perr != 0 {
		t.Errorf("%d parse errors on a valid stream", perr)
	}
	// Conservation: every record the listener accepted was dispatched to
	// a tenant queue or counted as a parse error — none vanished in the
	// drain.
	if received != fed+perr {
		t.Errorf("received(%d) != fed(%d) + parse_errors(%d)", received, fed, perr)
	}
	// The sums reconcile with the sources: at least every acked record,
	// at most everything the senders ever wrote.
	ackedFloor := int64(completers) * int64(len(recs))
	sentCeil := ackedFloor + streamerSent.Load()
	if received < ackedFloor {
		t.Errorf("received %d records, but completed sources were acked for %d", received, ackedFloor)
	}
	if received > sentCeil {
		t.Errorf("received %d records, but sources sent at most %d", received, sentCeil)
	}

	// Every tenant — including the severed ones — landed a final
	// checkpoint in its namespaced store on the drain path.
	for i := 0; i < soakTenants; i++ {
		id := fmt.Sprintf("home-%03d", i)
		st, err := modelstore.OpenTenant(store, id, modelstore.Options{})
		if err != nil {
			t.Fatalf("tenant %s store: %v", id, err)
		}
		snap, err := st.Load("")
		if err != nil {
			t.Fatalf("tenant %s has no final checkpoint: %v", id, err)
		}
		if len(snap.Files[modelstore.FileTenant]) == 0 {
			t.Errorf("tenant %s checkpoint is missing its tenant state snapshot", id)
		}
	}
}
