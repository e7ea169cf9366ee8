package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/fleet/listener"
	"behaviot/internal/modelstore"
	"behaviot/internal/pcapio"
	"behaviot/internal/testbed"
)

// crashSoakTenants is the fleet size the SIGKILL soak runs at: enough
// homes that shards, queues, checkpoints, and resume cursors are all
// genuinely concurrent when the kill lands, small enough that the
// reference run and three victim incarnations fit a CI timeout.
const crashSoakTenants = 50

// crashSoakVariants is how many distinct replay streams the fleet
// spreads across its tenants (tenant i sends variant i%N), so the
// byte-identity oracle compares genuinely different logs, not fifty
// copies of one stream.
const crashSoakVariants = 4

// crashSoakDir places the soak's artifacts: a TempDir normally, a
// stable path kept on failure when BEHAVIOT_SOAK_DIR is set (the CI
// job sets it and uploads the directory when the gate fails).
func crashSoakDir(t *testing.T) string {
	base := os.Getenv("BEHAVIOT_SOAK_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir) //lint:ignore errcheck best-effort cleanup of a passing run's artifacts
		}
	})
	return dir
}

// crashSoakStreams builds the variant replay streams. Each variant
// carries a plug that runs the whole window and a bulb that dies early
// — the bulb's silence guarantees deviation lines in every tenant's
// event log, so the byte-identity oracle never compares empty files.
func crashSoakStreams(t *testing.T) [][]pcapio.Record {
	t.Helper()
	tb := testbed.New()
	plug := tb.Device("TPLink Plug")
	bulb := tb.Device("Gosund Bulb")
	out := make([][]pcapio.Record, crashSoakVariants)
	for v := range out {
		g := testbed.NewGenerator(tb, int64(61+v))
		start := datasets.DefaultStart.Add(time.Duration(20+v) * 24 * time.Hour)
		pkts := testbed.MergePackets(
			g.BootstrapDNS(plug, start.Add(-time.Minute)),
			g.BootstrapDNS(bulb, start.Add(-50*time.Second)),
			g.PeriodicWindow(plug, start, start.Add(8*time.Hour)),
			// The bulb stops hours before the plug → silence alarms.
			g.PeriodicWindow(bulb, start, start.Add(time.Duration(2+v)*time.Hour)),
		)
		recs, err := datasets.EncodePackets(pkts)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 200 {
			t.Fatalf("soak stream variant %d has only %d records", v, len(recs))
		}
		out[v] = recs
	}
	return out
}

// writeRosterFile writes an n-tenant `id,token` roster.
func writeRosterFile(t *testing.T, dir string, n int) string {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "home-%03d,tok-%03d\n", i, i)
	}
	path := filepath.Join(dir, "tenants.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var controlAddrRe = regexp.MustCompile(`control plane on (\S+)`)

// controlAddr extracts the daemon's control-plane address from its
// "fleet ready" log line.
func (d *daemonProc) controlAddr(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	m := controlAddrRe.FindStringSubmatch(string(data))
	if m == nil {
		t.Fatalf("no control-plane address in daemon log:\n%s", data)
	}
	return m[1]
}

// tenantStatus fetches one tenant's /status body; errors are returned
// (not fatal) so kill-trigger polling can race the daemon's death.
func tenantStatus(ctrl, id string) (map[string]any, error) {
	resp, err := http.Get("http://" + ctrl + "/tenants/" + id + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body, nil
}

// statusInt reads one integer field from a status body (JSON numbers
// decode as float64).
func statusInt(body map[string]any, key string) int64 {
	f, _ := body[key].(float64)
	return int64(f)
}

// TestCrashSoakFleetSigkill is the whole-fleet durability gate: a
// 50-tenant behaviotd running differential checkpoints (-store-full-every
// 4) is SIGKILLed twice mid-ingest — once while a fault injector tears
// the fleet's first delta-payload write, once clean — and restarted
// with -resume each time. Sources recover their cursor from each
// tenant's /status (received_records is exactly what the last durable
// checkpoint consumed, the ingest-gate invariant) and resend the
// remainder. Every relaunch must load the model the first incarnation
// stored rather than train. After the final run drains, every tenant's
// event log and materialized streaming state must be byte-identical to
// an uninterrupted reference fleet, -verify-store must find every
// tenant's newest delta chain and the model intact, delta generations
// must actually have been written, and no tenant may have taken a
// resume fallback.
func TestCrashSoakFleetSigkill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	dir := crashSoakDir(t)
	idle, devices, _ := writeReplayFixtures(t, dir)
	roster := writeRosterFile(t, dir, crashSoakTenants)
	streams := crashSoakStreams(t)
	recsFor := func(i int) []pcapio.Record { return streams[i%crashSoakVariants] }
	tenantID := func(i int) string { return fmt.Sprintf("home-%03d", i) }

	fleetArgs := func(sock, store, logDir, ckptIvl string, extra ...string) []string {
		args := []string{
			"-fleet", "-fleet-shards", "4",
			"-fleet-unix", sock,
			"-fleet-tenants", roster,
			"-fleet-eventlog-dir", logDir,
			"-idle", idle, "-devices", devices,
			"-store", store, "-checkpoint-interval", ckptIvl,
			"-listen", "127.0.0.1:0",
		}
		return append(args, extra...)
	}

	// --- Reference fleet: never interrupted. Every source sends its
	// full stream, demands an exact ack, and the fleet drains cleanly.
	refStore := filepath.Join(dir, "store-ref")
	refLogs := filepath.Join(dir, "logs-ref")
	refSock := filepath.Join(dir, "ref.sock")
	ref := startDaemon(t, dir, fleetArgs(refSock, refStore, refLogs, "1h")...)
	ref.waitForLog(t, "fleet ready", 180*time.Second)
	var wg sync.WaitGroup
	for i := 0; i < crashSoakTenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs := recsFor(i)
			s, err := listener.Dial("unix", refSock, tenantID(i), fmt.Sprintf("tok-%03d", i))
			if err != nil {
				t.Errorf("ref tenant %03d: %v", i, err)
				return
			}
			for _, r := range recs {
				if err := s.Send(r.Time, r.Data); err != nil {
					t.Errorf("ref tenant %03d: %v", i, err)
					return
				}
			}
			if consumed, err := s.Close(); err != nil || consumed != int64(len(recs)) {
				t.Errorf("ref tenant %03d: acked %d of %d records, err %v", i, consumed, len(recs), err)
			}
		}(i)
	}
	wg.Wait()
	ref.terminate(t)
	ref.waitForLog(t, "fleet drained", 10*time.Second)

	// --- Victim fleet: short-interval differential checkpoints, two
	// SIGKILL cycles, then a final cycle that runs to completion. Every
	// incarnation resumes from whatever the previous kill left behind.
	vStore := filepath.Join(dir, "store-victim")
	vLogs := filepath.Join(dir, "logs-victim")
	vSock := filepath.Join(dir, "victim.sock")
	const killCycles = 2
	midIngestKills := 0
	resumedCursors := 0

	for cycle := 0; cycle <= killCycles; cycle++ {
		extra := []string{"-store-full-every", "4", "-resume"}
		if cycle == 0 {
			// First incarnation also rides out a torn delta-payload
			// write: the checkpoint fails, the housekeeper retries, and
			// the chain on disk must stay intact throughout.
			extra = append(extra, "-store-fault", "failwrite=1,tear=64,path=.delta,match=1")
		}
		proc := startDaemon(t, dir, fleetArgs(vSock, vStore, vLogs, "250ms", extra...)...)
		proc.waitForLog(t, "fleet ready", 180*time.Second)
		if cycle > 0 {
			// Every relaunch finds the model the first incarnation stored.
			proc.requireModelLoaded(t)
		}
		ctrl := proc.controlAddr(t)

		// Resume cursors: received_records is restored from the last
		// durable checkpoint, so recs[cursor:] is exactly what the
		// monitor has not yet consumed.
		cursor := make([]int, crashSoakTenants)
		for i := range cursor {
			body, err := tenantStatus(ctrl, tenantID(i))
			if err != nil {
				t.Fatalf("cycle %d: tenant %03d status: %v", cycle, i, err)
			}
			if n := statusInt(body, "received_records"); n > 0 {
				cursor[i] = int(n)
				resumedCursors++
			}
			if max := len(recsFor(i)); cursor[i] > max {
				t.Fatalf("cycle %d: tenant %03d resumed cursor %d past its %d-record stream",
					cycle, i, cursor[i], max)
			}
		}

		last := cycle == killCycles
		var swg sync.WaitGroup
		for i := 0; i < crashSoakTenants; i++ {
			swg.Add(1)
			go func(i int) {
				defer swg.Done()
				recs := recsFor(i)[cursor[i]:]
				if len(recs) == 0 {
					return
				}
				s, err := listener.Dial("unix", vSock, tenantID(i), fmt.Sprintf("tok-%03d", i))
				if err != nil {
					if last {
						t.Errorf("tenant %03d: %v", i, err)
					}
					return
				}
				for k, r := range recs {
					// Paced, so a kill cycle's SIGKILL reliably lands
					// while sources are mid-stream (pacing changes
					// timing only, never output).
					if !last && k%4 == 0 {
						time.Sleep(time.Millisecond)
					}
					if err := s.Send(r.Time, r.Data); err != nil {
						if last {
							t.Errorf("tenant %03d: %v", i, err)
						} else {
							s.Abort()
						}
						return
					}
				}
				if last {
					if consumed, err := s.Close(); err != nil || consumed != int64(len(recs)) {
						t.Errorf("tenant %03d: acked %d of %d resent records, err %v",
							i, consumed, len(recs), err)
					}
				} else {
					s.Abort()
				}
			}(i)
		}

		if !last {
			// Kill once a checkpoint has landed AND a probe tenant is
			// observably mid-stream — the state a resume actually has to
			// untangle. The probes' live counters come from /status.
			deadline := time.Now().Add(90 * time.Second)
			mid, ckpt := false, false
			for time.Now().Before(deadline) && !(mid && ckpt) {
				for p := 0; p < 5; p++ {
					body, err := tenantStatus(ctrl, tenantID(p))
					if err != nil {
						continue
					}
					if statusInt(body, "store_generation") >= 1 {
						ckpt = true
					}
					got := int(statusInt(body, "received_records"))
					if got > cursor[p] && got < len(recsFor(p)) {
						mid = true
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !ckpt {
				data, _ := os.ReadFile(proc.logPath)
				t.Fatalf("cycle %d: no checkpoint landed before the kill deadline; log:\n%s", cycle, data)
			}
			if mid {
				midIngestKills++
			}
			if err := proc.cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			proc.cmd.Wait() //lint:ignore errcheck reaping a SIGKILLed child; the non-zero exit is the point
			swg.Wait()
			continue
		}

		// Final cycle: exact acks, then sample every tenant's status
		// before the drain — no resume fallbacks anywhere, and the
		// differential cadence must actually have produced deltas.
		swg.Wait()
		var deltas int64
		waitDeadline := time.Now().Add(15 * time.Second)
		for deltas == 0 && time.Now().Before(waitDeadline) {
			deltas = 0
			for i := 0; i < crashSoakTenants; i++ {
				body, err := tenantStatus(ctrl, tenantID(i))
				if err != nil {
					t.Fatalf("tenant %03d status: %v", i, err)
				}
				if n := statusInt(body, "resume_fallbacks_total"); n != 0 {
					t.Errorf("tenant %03d took %d resume fallbacks (reason %v); SIGKILL must never corrupt the durable chain",
						i, n, body["resume_fallback_reason"])
				}
				deltas += statusInt(body, "checkpoint_deltas_total")
			}
			if deltas == 0 {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if deltas == 0 {
			t.Error("no delta generation written in the final incarnation; differential checkpointing is not exercised")
		}
		proc.terminate(t)
		proc.waitForLog(t, "fleet drained", 10*time.Second)
	}

	if midIngestKills == 0 {
		t.Error("no SIGKILL landed mid-ingest; the soak degenerated into clean restarts")
	}
	if resumedCursors == 0 {
		t.Error("no tenant ever resumed a non-zero cursor; checkpoints never carried ingest progress")
	}

	// --- Oracle 1: per-tenant event logs byte-identical to the
	// uninterrupted reference.
	for i := 0; i < crashSoakTenants; i++ {
		id := tenantID(i)
		a, err := os.ReadFile(filepath.Join(refLogs, id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(vLogs, id+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 {
			t.Fatalf("tenant %s reference event log is empty; the fixture no longer produces deviations", id)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("tenant %s event log diverged after crash+resume (%d vs %d bytes)", id, len(a), len(b))
		}
	}

	// --- Oracle 2: materialized final streaming state byte-identical, even
	// though the victim's newest generation sits at the end of a delta
	// chain and the reference's is a plain full snapshot.
	for i := 0; i < crashSoakTenants; i++ {
		id := tenantID(i)
		load := func(root string) *modelstore.Snapshot {
			s, err := modelstore.OpenTenant(root, id, modelstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Load("")
			if err != nil {
				t.Fatalf("tenant %s: Load(%s): %v", id, root, err)
			}
			return snap
		}
		refSnap, vSnap := load(refStore), load(vStore)
		if refSnap.Fingerprint != vSnap.Fingerprint {
			t.Fatalf("tenant %s fingerprints diverged: %q vs %q", id, refSnap.Fingerprint, vSnap.Fingerprint)
		}
		for _, name := range []string{modelstore.FileMonitor, modelstore.FileTenant} {
			if !bytes.Equal(refSnap.Files[name], vSnap.Files[name]) {
				t.Errorf("tenant %s final %s differs between reference and crash-resumed fleet (%d vs %d bytes)",
					id, name, len(refSnap.Files[name]), len(vSnap.Files[name]))
			}
		}
	}

	// --- Oracle 3: -verify-store over the victim's fleet root — every
	// tenant's newest chain, and the stored model, must materialize (no
	// lost durable generations), through the same binary an operator
	// would run.
	verify := exec.Command(os.Args[0], "-verify-store", "-store", vStore)
	verify.Env = append(os.Environ(), "BEHAVIOTD_TEST_RUN_MAIN=1")
	out, err := verify.CombinedOutput()
	if err != nil {
		t.Fatalf("-verify-store failed after the soak: %v\n%s", err, out)
	}
	want := fmt.Sprintf("verify-store: all %d stores recoverable", crashSoakTenants+1)
	if !strings.Contains(string(out), want) {
		t.Errorf("-verify-store output missing %q:\n%s", want, out)
	}
}
