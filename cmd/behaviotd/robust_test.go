package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"behaviot/internal/chaos"
	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/fleet"
	"behaviot/internal/flows"
	"behaviot/internal/testbed"
)

// newTestHome trains a minimal pipeline and stands up what runHome
// does around it — a one-shard daemon holding the tenant homeID, and
// its feeder — the shared fixture for the in-process regressions.
// storeRoot "" means no checkpointing; resume restores from it.
func newTestHome(t *testing.T, storeRoot string, resume bool) (*fleet.Daemon, *feeder) {
	t.Helper()
	tb := testbed.New()
	d, err := fleet.New(fleet.Config{
		Shards:       1,
		PipeSnap:     fixturePipeline(t),
		Fingerprint:  "behaviotd-test/v1",
		AssemblerCfg: flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()},
		StoreRoot:    storeRoot,
		Resume:       resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	home, err := d.Add(homeID, "in-process")
	if err != nil {
		t.Fatal(err)
	}
	return d, &feeder{home: home, stop: make(chan struct{})}
}

// fixturePipeline trains newTestHome's model: periodic models only,
// from one idle day of a TPLink Plug and a Gosund Bulb.
func fixturePipeline(t *testing.T) []byte {
	t.Helper()
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{tb.Device("TPLink Plug"), tb.Device("Gosund Bulb")}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	pipe, err := core.Train(idle, map[string][]*flows.Flow{}, core.DefaultConfig())
	if err != nil {
		t.Fatalf("training fixture pipeline: %v", err)
	}
	return core.MarshalPipeline(pipe)
}

// writeCorruptedCapture generates a synthetic capture, damages ~rate of
// its record bytes (sparing the file header), and writes it to a temp
// file. Returns the path and the pristine packet count.
func writeCorruptedCapture(t *testing.T, rate float64) (string, int) {
	t.Helper()
	tb := testbed.New()
	g := testbed.NewGenerator(tb, 7)
	dev := tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(3 * 24 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(dev, start.Add(-time.Minute)),
		g.PeriodicWindow(dev, start, start.Add(2*time.Hour)),
	)
	var buf bytes.Buffer
	if err := datasets.WritePcap(&buf, pkts); err != nil {
		t.Fatalf("writing capture: %v", err)
	}
	raw := chaos.CorruptFile(buf.Bytes(), 24, rate, 42)
	path := filepath.Join(t.TempDir(), "corrupt.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, len(pkts)
}

// TestFeedCorruptedCaptureTolerant is the headline robustness
// regression: a ~1%-corrupted capture fed through the tolerant path
// must complete without error, deliver most of the traffic, and account
// for the damage in the parse-error and dropped-record counters.
func TestFeedCorruptedCaptureTolerant(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	path, total := writeCorruptedCapture(t, 0.01)
	_, f := newTestHome(t, "", false)
	if err := f.run(options{replay: path, tolerant: true}, chaos.Config{}); err != nil {
		t.Fatalf("tolerant feed of corrupted capture failed: %v", err)
	}

	st := f.home.Status()
	packets, parseErrors := st["packets"].(int64), st["parse_errors"].(int64)
	damage := parseErrors + f.droppedRecords.Load()
	if damage == 0 {
		t.Error("1% corruption produced no parse errors and no dropped records; counters are dead")
	}
	if packets == 0 {
		t.Error("no packets survived the tolerant feed; resync is not recovering")
	}
	if packets+damage < int64(total)/2 {
		t.Errorf("accounted for %d of %d records (fed %d, damaged %d); tolerant reader is losing sync",
			packets+damage, total, packets, damage)
	}
	if received := st["received_records"].(int64); received != packets+parseErrors {
		t.Errorf("received %d records but monitor packets %d + parse errors %d", received, packets, parseErrors)
	}
	t.Logf("total=%d fed=%d parse_errors=%d dropped_records=%d skipped_bytes=%d",
		total, packets, parseErrors, f.droppedRecords.Load(), f.droppedBytes.Load())
}

// TestFeedCorruptedCaptureStrictFails pins the pre-hardening contract:
// without -tolerant, a damaged capture aborts the feed with an error
// (which runHome turns into a nonzero exit) instead of silently munging.
func TestFeedCorruptedCaptureStrictFails(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	path, _ := writeCorruptedCapture(t, 0.01)
	_, f := newTestHome(t, "", false)
	err := f.run(options{replay: path}, chaos.Config{})
	if err == nil {
		t.Fatal("strict feed of corrupted capture returned nil; want a hard error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("feed error %q does not name the capture", err)
	}
}

// TestMetricsReportIngestDamage feeds the corrupted capture and asserts
// the damage is visible on single-home's HTTP surface — the acceptance
// criterion for the degrade-gracefully path — and that the root aliases
// answer for the one tenant.
func TestMetricsReportIngestDamage(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	path, _ := writeCorruptedCapture(t, 0.01)
	d, f := newTestHome(t, "", false)
	if err := f.run(options{replay: path, tolerant: true}, chaos.Config{}); err != nil {
		t.Fatalf("tolerant feed: %v", err)
	}
	ts := httptest.NewServer(homeMux(d, f, true))
	defer ts.Close()

	body := httpGet(t, ts.URL+"/metrics")
	damage := metricValue(t, body, `behaviot_tenant_parse_errors_total{tenant="home"}`) +
		metricValue(t, body, "behaviot_dropped_records_total")
	if damage == 0 {
		t.Errorf("/metrics reports no parse errors or dropped records for a corrupted capture:\n%s", body)
	}
	if metricValue(t, body, `behaviot_tenant_packets_total{tenant="home"}`) == 0 {
		t.Errorf("/metrics reports zero packets; feed did not reach the monitor:\n%s", body)
	}
	if got, want := metricValue(t, body, "behaviot_dropped_record_bytes_total"), f.droppedBytes.Load(); got != want {
		t.Errorf("behaviot_dropped_record_bytes_total = %d, reader skipped %d bytes", got, want)
	}

	var status map[string]any
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/status")), &status); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"tenant", "packets", "parse_errors", "dropped_records", "tolerant", "uptime_seconds"} {
		if _, ok := status[key]; !ok {
			t.Errorf("/status missing %q: %v", key, status)
		}
	}
	for _, alias := range []string{"/events", "/deviations"} {
		if got, want := httpGet(t, ts.URL+alias), httpGet(t, ts.URL+"/tenants/"+homeID+alias); got != want {
			t.Errorf("%s answers %q, the tenant endpoint %q", alias, got, want)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

// metricValue extracts one series' value from Prometheus text
// exposition; name includes the label set, if any.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Errorf("metric %s not found in exposition", name)
		return 0
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Errorf("metric %s: %v", name, err)
	}
	return n
}

// TestPreflightPcapRejectsUnreadable covers the startup contract: a
// missing or malformed replay capture fails setup (and so the process)
// with a descriptive error before the daemon starts serving.
func TestPreflightPcapRejectsUnreadable(t *testing.T) {
	if err := preflightPcap(filepath.Join(t.TempDir(), "nope.pcap")); err == nil {
		t.Error("preflight accepted a nonexistent capture")
	}
	bad := filepath.Join(t.TempDir(), "bad.pcap")
	if err := os.WriteFile(bad, []byte("this is not a pcap file"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := preflightPcap(bad)
	if err == nil {
		t.Fatal("preflight accepted garbage as a capture")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("preflight error %q does not name the offending file", err)
	}
}

// logHook is a log writer that hands every line logged through it to
// the func.
type logHook func(line []byte)

func (h logHook) Write(p []byte) (int, error) { h(p); return len(p), nil }

// TestOpenWithRetry pins the open retry: a file that appears while the
// first retry waits is opened, and a path that never appears returns
// the os error after the last of four attempts (three paced waits).
func TestOpenWithRetry(t *testing.T) {
	defer log.SetOutput(os.Stderr)

	late := filepath.Join(t.TempDir(), "late.pcap")
	waits := 0
	log.SetOutput(logHook(func([]byte) {
		// Logged just before the first wait: the file lands during it.
		if waits++; waits == 1 {
			if err := os.WriteFile(late, []byte("late"), 0o644); err != nil {
				t.Error(err)
			}
		}
	}))
	f, err := openWithRetry(late)
	if err != nil {
		t.Fatalf("openWithRetry(%s) after it appeared: %v", late, err)
	}
	f.Close()
	if waits != 1 {
		t.Errorf("opened after %d waits, want 1", waits)
	}

	missing := filepath.Join(t.TempDir(), "nope.pcap")
	waits = 0
	log.SetOutput(logHook(func([]byte) { waits++ }))
	if _, err := openWithRetry(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("openWithRetry(%s) = %v, want the os not-exist error", missing, err)
	}
	if waits != 3 {
		t.Errorf("gave up after %d waits, want 3", waits)
	}
}

// TestMetricsCheckpointAgeGauge pins the checkpoint-age contract on
// single-home's surface: /status carries no last_checkpoint_age_seconds
// until the first checkpoint lands (an age computed from the zero
// timestamp would read as decades of staleness and trip any freshness
// alert at startup), and once one has, /status and the /metrics gauge
// both report a sane small age.
func TestMetricsCheckpointAgeGauge(t *testing.T) {
	d, f := newTestHome(t, t.TempDir(), false)
	ts := httptest.NewServer(homeMux(d, f, false))
	defer ts.Close()
	status := func() map[string]any {
		var st map[string]any
		if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/status")), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	const key = "last_checkpoint_age_seconds"
	if st := status(); st[key] != nil {
		t.Errorf("%s exposed before any checkpoint: %v", key, st[key])
	}
	f.home.Checkpoint()
	age, ok := status()[key].(float64)
	if !ok || age < 0 || age > 120 {
		t.Errorf("%s = %v after a checkpoint, want a small age", key, status()[key])
	}
	const gauge = `behaviot_tenant_checkpoint_age_seconds{tenant="home"}`
	if v := metricValue(t, httpGet(t, ts.URL+"/metrics"), gauge); v > 120 {
		t.Errorf("%s = %d after a checkpoint, want a small age", gauge, v)
	}
}

// TestLoadDevicesHeaderSkip pins the manifest reader -devices uses: the
// first non-blank row is the header wherever it sits, CRLF endings are
// tolerated, and a row without a comma is skipped rather than fatal.
func TestLoadDevicesHeaderSkip(t *testing.T) {
	for _, tc := range []struct {
		name, csv string
		want      int
		wantErr   string
	}{
		{"plain", "ip,name\n192.168.0.2,plug\n192.168.0.3,bulb\n", 2, ""},
		{"leading blank line", "\nip,name\n192.168.0.2,plug\n", 1, ""},
		{"blank lines throughout", "\n\nip,name\n\n192.168.0.2,plug\n\n", 1, ""},
		{"crlf", "ip,name\r\n192.168.0.2,plug\r\n192.168.0.3,bulb\r\n", 2, ""},
		{"short row", "ip,name\n192.168.0.2\n192.168.0.3,bulb\n", 1, ""},
		{"extra columns", "ip,name,mac,notes\n192.168.0.2,plug,aa:bb,x,y\n", 1, ""},
		{"bad ip after header", "ip,name\nnot-an-ip,plug\n", 0, `bad IP "not-an-ip"`},
	} {
		path := filepath.Join(t.TempDir(), "devices.csv")
		if err := os.WriteFile(path, []byte(tc.csv), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := datasets.LoadDevices(path)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(got) != tc.want {
			t.Errorf("%s: %d devices, want %d: %v", tc.name, len(got), tc.want, got)
		}
		for _, name := range got {
			if name != "plug" && name != "bulb" {
				t.Errorf("%s: device named %q; a header or stray column leaked in", tc.name, name)
			}
		}
	}
}
