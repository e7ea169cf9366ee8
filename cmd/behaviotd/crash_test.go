package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/modelstore"
	"behaviot/internal/netparse"
	"behaviot/internal/testbed"
)

// TestMain doubles as the daemon entry point for subprocess tests: when
// re-executed with BEHAVIOTD_TEST_RUN_MAIN=1 the test binary IS
// behaviotd, which lets the crash-recovery tests deliver real signals
// to a real process mid-run.
func TestMain(m *testing.M) {
	if os.Getenv("BEHAVIOTD_TEST_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestShutdownDrainsFinalCheckpoint is the clean-shutdown regression:
// when the feeder is stopped mid-feed (the SIGTERM path) it must quit at
// a record boundary, and the checkpoint Suspend then lands must carry a
// cursor that matches exactly what the monitor consumed: received ==
// monitor packets + parse errors, in memory and as restored from disk.
func TestShutdownDrainsFinalCheckpoint(t *testing.T) {
	store := t.TempDir()
	d, f := newTestHome(t, store, false)

	tb := testbed.New()
	g := testbed.NewGenerator(tb, 21)
	dev := tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(5 * 24 * time.Hour)
	recs, err := datasets.EncodePackets(testbed.MergePackets(
		g.BootstrapDNS(dev, start.Add(-time.Minute)),
		g.PeriodicWindow(dev, start, start.Add(12*time.Hour)),
	))
	if err != nil {
		t.Fatal(err)
	}
	const stopAt = 500
	if len(recs) < 2*stopAt {
		t.Fatalf("only %d records generated; need enough to outlast the stop point", len(recs))
	}

	// Every 10th record is garbage, so parse errors are part of the
	// balance; the "signal" arrives while record stopAt is being read.
	var n int
	err = f.feed(func() (time.Time, []byte, error) {
		r := recs[n]
		if n++; n == stopAt {
			close(f.stop)
		}
		if n%10 == 0 {
			return r.Time, []byte{0xde, 0xad, 0xbe, 0xef}, nil
		}
		return r.Time, r.Data, nil
	})
	if !errors.Is(err, errStopped) {
		t.Fatalf("feed after stop = %v, want errStopped", err)
	}
	f.home.Suspend()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(what string, st map[string]any) {
		t.Helper()
		received, packets, perr := st["received_records"].(int64), st["packets"].(int64), st["parse_errors"].(int64)
		if received != stopAt {
			t.Errorf("%s: cursor at record %d, want the stop point %d", what, received, stopAt)
		}
		if perr != stopAt/10 || received != packets+perr {
			t.Errorf("%s: received(%d) != monitor packets(%d) + parse_errors(%d); checkpoint is not consistent",
				what, received, packets, perr)
		}
		if st["store_generation"].(int64) == 0 {
			t.Errorf("%s: no checkpoint landed", what)
		}
	}
	check("stopped home", f.home.Status())
	_, restored := newTestHome(t, store, true)
	check("home restored from the final checkpoint", restored.home.Status())
}

// writeReplayFixtures generates the capture pair and device manifest
// for the subprocess crash-recovery test: an idle training capture, and
// a replay capture in which one device dies early (so silence alarms —
// and therefore event-log lines — are guaranteed downstream).
func writeReplayFixtures(t *testing.T, dir string) (idle, devices, replay string) {
	t.Helper()
	tb := testbed.New()
	g := testbed.NewGenerator(tb, 31)
	plug := tb.Device("TPLink Plug")
	bulb := tb.Device("Gosund Bulb")

	trainStart := datasets.DefaultStart
	idlePkts := testbed.MergePackets(
		g.BootstrapDNS(plug, trainStart.Add(-time.Minute)),
		g.BootstrapDNS(bulb, trainStart.Add(-50*time.Second)),
		g.PeriodicWindow(plug, trainStart, trainStart.Add(3*time.Hour)),
		g.PeriodicWindow(bulb, trainStart, trainStart.Add(3*time.Hour)),
	)
	start := datasets.DefaultStart.Add(10 * 24 * time.Hour)
	replayPkts := testbed.MergePackets(
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.BootstrapDNS(bulb, start.Add(-50*time.Second)),
		g.PeriodicWindow(plug, start, start.Add(24*time.Hour)),
		g.PeriodicWindow(bulb, start, start.Add(2*time.Hour)), // dies → silence alarms
	)

	writePcapFile := func(name string, pkts []*netparse.Packet) string {
		var buf bytes.Buffer
		if err := datasets.WritePcap(&buf, pkts); err != nil {
			t.Fatalf("writing %s: %v", name, err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	idle = writePcapFile("idle.pcap", idlePkts)
	replay = writePcapFile("replay.pcap", replayPkts)

	var sb strings.Builder
	sb.WriteString("ip,name\n")
	var rows []string
	for ip, name := range tb.DeviceByIP() {
		rows = append(rows, fmt.Sprintf("%s,%s\n", ip, name))
	}
	sort.Strings(rows)
	for _, row := range rows {
		sb.WriteString(row)
	}
	devices = filepath.Join(dir, "devices.csv")
	if err := os.WriteFile(devices, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return idle, devices, replay
}

// daemonProc is one re-executed behaviotd subprocess with its log file.
type daemonProc struct {
	cmd     *exec.Cmd
	logPath string
}

func startDaemon(t *testing.T, dir string, args ...string) *daemonProc {
	t.Helper()
	logPath := filepath.Join(dir, fmt.Sprintf("daemon-%d.log", time.Now().UnixNano()))
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BEHAVIOTD_TEST_RUN_MAIN=1")
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logFile.Close() // the child holds its own descriptor
	return &daemonProc{cmd: cmd, logPath: logPath}
}

// waitForLog polls the daemon's log until a marker appears.
func (d *daemonProc) waitForLog(t *testing.T, marker string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		data, _ := os.ReadFile(d.logPath)
		if strings.Contains(string(data), marker) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	data, _ := os.ReadFile(d.logPath)
	t.Fatalf("daemon log never showed %q; log:\n%s", marker, data)
}

// status fetches the daemon's /status body, finding the address in its
// "listening on" log line.
func (d *daemonProc) status(t *testing.T) map[string]any {
	t.Helper()
	d.waitForLog(t, "behaviotd listening on ", 120*time.Second)
	data, err := os.ReadFile(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`behaviotd listening on (\S+)`).FindSubmatch(data)
	var st map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+string(m[1])+"/status")), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// terminate sends SIGTERM and waits for a clean exit.
func (d *daemonProc) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			data, _ := os.ReadFile(d.logPath)
			t.Fatalf("daemon exited with %v; log:\n%s", err, data)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		data, _ := os.ReadFile(d.logPath)
		t.Fatalf("daemon did not exit after SIGTERM; log:\n%s", data)
	}
}

// homeRun is one single-home replay configuration for the subprocess
// equivalence tests: the replay fixtures plus a store and an event log.
type homeRun struct {
	dir, idle, devices, replay string
}

func (h homeRun) store(tag string) string    { return filepath.Join(h.dir, "store-"+tag) }
func (h homeRun) eventLog(tag string) string { return filepath.Join(h.dir, "events-"+tag+".jsonl") }

func (h homeRun) args(tag, interval string, extra ...string) []string {
	return append([]string{
		"-listen", "127.0.0.1:0",
		"-idle", h.idle, "-devices", h.devices, "-replay", h.replay,
		"-store", h.store(tag), "-eventlog", h.eventLog(tag),
		"-checkpoint-interval", interval,
	}, extra...)
}

// runToCompletion runs a daemon until its feed completes, then SIGTERMs it.
func (h homeRun) runToCompletion(t *testing.T, tag string, extra ...string) *daemonProc {
	t.Helper()
	p := startDaemon(t, h.dir, h.args(tag, "1h", extra...)...)
	p.waitForLog(t, "feed complete", 120*time.Second)
	p.terminate(t)
	return p
}

// waitMidFeed blocks until the victim is worth interrupting: an interval
// checkpoint exists past the initial gen-000001 (which may long since
// have been pruned; any surviving later generation proves one) AND the
// event log has lines — so the interruption leaves log lines newer than
// some durable checkpoint, which -resume must reconcile.
func (h homeRun) waitMidFeed(t *testing.T, victim *daemonProc, tag string) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			data, _ := os.ReadFile(victim.logPath)
			t.Fatalf("victim never reached an interruptible state; log:\n%s", data)
		}
		entries, _ := os.ReadDir(filepath.Join(h.store(tag), "tenants", homeID))
		pastInitial := false
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "gen-") && e.Name() > "gen-000001" {
				pastInitial = true
			}
		}
		if st, err := os.Stat(h.eventLog(tag)); pastInitial && err == nil && st.Size() > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// requireSameArtifacts is the equivalence oracle: the interrupted-and-
// resumed run's event log and final snapshot files — models, streaming
// state and tenant state — must be byte-identical to the uninterrupted
// reference's.
func (h homeRun) requireSameArtifacts(t *testing.T, ref, got string) {
	t.Helper()
	a, err := os.ReadFile(h.eventLog(ref))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(h.eventLog(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("reference event log is empty; the fixture no longer produces deviations")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("event logs diverged:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", a, b)
	}
	loadFinal := func(tag string) *modelstore.Snapshot {
		s, err := modelstore.OpenTenant(h.store(tag), homeID, modelstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Load("")
		if err != nil {
			t.Fatalf("Load(%s): %v", h.store(tag), err)
		}
		return snap
	}
	finalA, finalB := loadFinal(ref), loadFinal(got)
	if finalA.Fingerprint != finalB.Fingerprint {
		t.Fatalf("fingerprints diverged: %q vs %q", finalA.Fingerprint, finalB.Fingerprint)
	}
	for _, name := range []string{modelstore.FilePipeline, modelstore.FileMonitor, modelstore.FileTenant} {
		if !bytes.Equal(finalA.Files[name], finalB.Files[name]) {
			t.Errorf("final %s differs between the uninterrupted and the resumed run (%d vs %d bytes)",
				name, len(finalA.Files[name]), len(finalB.Files[name]))
		}
	}
}

// TestCrashRecoveryEquivalence is the end-to-end crash-safety proof: a
// daemon SIGKILLed mid-run and restarted with -resume must produce a
// byte-identical event log and byte-identical final snapshot files to a
// daemon that was never interrupted. SIGKILL is real (a subprocess, not
// a simulated crash), so torn store writes and lost unsynced state are
// genuinely on the table.
func TestCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	h := homeRun{dir: t.TempDir()}
	h.idle, h.devices, h.replay = writeReplayFixtures(t, h.dir)
	h.runToCompletion(t, "a")

	// Victim run: paced feed (so there IS a mid-feed window), frequent
	// checkpoints, then a real SIGKILL as soon as the first interval
	// checkpoint appears — mid-feed under any realistic scheduling, and
	// possibly mid-write of the next generation. Even a late kill (after
	// feed completion) must still converge. Pacing changes timing only,
	// never output.
	victim := startDaemon(t, h.dir, h.args("b", "25ms", "-simrate", "200000")...)
	h.waitMidFeed(t, victim, "b")
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.cmd.Wait() // reap; exit status is "killed", not interesting

	// Recovery run: resume from whatever the kill left behind (unpaced).
	h.runToCompletion(t, "b", "-resume")
	h.requireSameArtifacts(t, "a", "b")
}

// TestSigtermResumeEquivalence is the clean-stop counterpart: a paced
// replay SIGTERMed mid-capture and restarted with -resume must also end
// byte-identical to the uninterrupted run. This is the test that fails
// if shutdown finalizes the monitor: the flows and the trace open at the
// stop point would be flushed early and the resumed run would classify
// their remainders as new flows. The resumed run must also skip
// training and restore without a fallback.
func TestSigtermResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	h := homeRun{dir: t.TempDir()}
	h.idle, h.devices, h.replay = writeReplayFixtures(t, h.dir)
	h.runToCompletion(t, "a")

	victim := startDaemon(t, h.dir, h.args("b", "25ms", "-simrate", "50000")...)
	h.waitMidFeed(t, victim, "b")
	victim.terminate(t)
	victimLog, err := os.ReadFile(victim.logPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(victimLog), "feed complete") {
		t.Fatalf("SIGTERM landed after the capture ended; the test shows nothing. log:\n%s", victimLog)
	}

	resumed := startDaemon(t, h.dir, h.args("b", "1h", "-resume")...)
	resumed.waitForLog(t, "feed complete", 120*time.Second)
	st := resumed.status(t)
	resumed.terminate(t)
	if got := st["resume_fallbacks_total"]; got != float64(0) {
		t.Errorf("resume_fallbacks_total = %v after resuming an intact store, want 0", got)
	}
	resumedLog, err := os.ReadFile(resumed.logPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(resumedLog), "training") != strings.Count(string(resumedLog), "(skipping training)") {
		t.Errorf("the resumed daemon trained instead of loading its checkpointed models; log:\n%s", resumedLog)
	}
	if !strings.Contains(string(resumedLog), "(skipping training)") || !strings.Contains(string(resumedLog), "fast-forwarding the feed") {
		t.Errorf("the resumed daemon did not resume its models and its feed; log:\n%s", resumedLog)
	}
	h.requireSameArtifacts(t, "a", "b")
}

// Event-log digests recorded from the last commit that still had the
// separate single-tenant runtime (cmd/behaviotd's own `server`), for the two feeds that
// runtime had: a capture replayed from a file, and the -sim day fed as
// in-memory packets. The fleet-of-one runtime must write the same bytes;
// for -sim that also proves the encode → decode round trip the day now
// takes changes no event.
const (
	goldenReplayEventLog = "ec109753d148228adc8ee61fe7d18d54dcc78c08b9fc5b711398a6f75a1a5f8a"
	goldenSimEventLog    = "28b2d4cce753292a5797f9c6ef4d88458ae578887e0bf0d9e1f0a778b03509ca"
)

func TestGoldenEventLogs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	dir := t.TempDir()
	idle, devices, replay := writeReplayFixtures(t, dir)
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"replay", goldenReplayEventLog, []string{"-idle", idle, "-devices", devices, "-replay", replay}},
		{"sim", goldenSimEventLog, []string{"-sim"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			logPath := filepath.Join(dir, tc.name+".jsonl")
			p := startDaemon(t, dir, append(tc.args, "-listen", "127.0.0.1:0", "-eventlog", logPath)...)
			p.waitForLog(t, "feed complete", 120*time.Second)
			p.terminate(t)
			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.want {
				t.Errorf("event log sha256 = %s, want %s; log:\n%s", got, tc.want, data)
			}
		})
	}
}
