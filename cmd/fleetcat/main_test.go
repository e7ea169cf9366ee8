package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/fleet"
	"behaviot/internal/fleet/listener"
	"behaviot/internal/flows"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// fcFixture is a minimal trained deployment plus one capture file —
// enough to run fleetcat's whole delivery path in-process.
type fcFixture struct {
	pipeSnap []byte
	acfg     flows.Config
	pcap     string
	packets  int
}

var fcx *fcFixture

func getFixture(t *testing.T) *fcFixture {
	t.Helper()
	if fcx != nil {
		return fcx
	}
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{tb.Device("TPLink Plug"), tb.Device("Gosund Bulb")}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	pipe, err := core.Train(idle, map[string][]*flows.Flow{}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := testbed.NewGenerator(tb, 7)
	plug := tb.Device("TPLink Plug")
	start := datasets.DefaultStart.Add(3 * 24 * time.Hour)
	pkts := testbed.MergePackets(
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.PeriodicWindow(plug, start, start.Add(time.Hour)),
	)
	var buf bytes.Buffer
	if err := datasets.WritePcap(&buf, pkts); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "fleetcat-fixture-*")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "stream.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	fcx = &fcFixture{
		pipeSnap: core.MarshalPipeline(pipe),
		acfg:     flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()},
		pcap:     path,
		packets:  len(pkts),
	}
	return fcx
}

// serveFleet stands up a daemon with one registered tenant and an
// ingest listener on loopback TCP, returning the daemon and the address.
func serveFleet(t *testing.T, fx *fcFixture) (*fleet.Daemon, string) {
	t.Helper()
	d, err := fleet.New(fleet.Config{
		Shards:       2,
		PipeSnap:     fx.pipeSnap,
		Fingerprint:  "fleetcat-test/v1",
		AssemblerCfg: fx.acfg,
		StreamCfg:    stream.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add("home-1", "s3cret"); err != nil {
		t.Fatal(err)
	}
	srv := listener.New(d)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) // server exits with ErrServerClosed at cleanup
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	return d, l.Addr().String()
}

// runFleetcat invokes run() with the given argv, capturing the exit code.
func runFleetcat(t *testing.T, args ...string) int {
	t.Helper()
	return run(args)
}

func TestFleetcatDeliversCapture(t *testing.T) {
	fx := getFixture(t)
	d, addr := serveFleet(t, fx)
	code := runFleetcat(t, "-net", "tcp", "-addr", addr,
		"-tenant", "home-1", "-token", "s3cret", "-pcap", fx.pcap)
	if code != 0 {
		t.Fatalf("fleetcat exit = %d, want 0", code)
	}
	tn := d.Get("home-1")
	if got := tn.Status()["received_records"].(int64); got != int64(fx.packets) {
		t.Errorf("tenant received %d records, capture has %d", got, fx.packets)
	}
}

func TestFleetcatAuthRefusalIsExit3NoRetry(t *testing.T) {
	fx := getFixture(t)
	_, addr := serveFleet(t, fx)
	start := time.Now()
	code := runFleetcat(t, "-net", "tcp", "-addr", addr,
		"-tenant", "home-1", "-token", "wrong",
		"-retries", "5", "-backoff", "30s", "-pcap", fx.pcap)
	if code != 3 {
		t.Fatalf("fleetcat exit = %d for bad token, want 3", code)
	}
	// No retry: with a 30s backoff base, a single retry would blow this.
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("auth refusal took %s — it was retried", took)
	}
}

func TestFleetcatRetriesTransientDialThenSucceeds(t *testing.T) {
	fx := getFixture(t)
	// Reserve an address nothing listens on yet: the first attempt gets
	// connection-refused, then the real server comes up and a retry
	// delivers the stream.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := fleet.New(fleet.Config{
		Shards:       1,
		PipeSnap:     fx.pipeSnap,
		Fingerprint:  "fleetcat-test/v1",
		AssemblerCfg: fx.acfg,
		StreamCfg:    stream.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add("home-1", "s3cret"); err != nil {
		t.Fatal(err)
	}
	srv := listener.New(d)
	t.Cleanup(func() {
		srv.Close()
		d.Close()
	})
	go func() {
		time.Sleep(300 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test fails on exit code below
		}
		srv.Serve(l) // server exits with ErrServerClosed at cleanup
	}()

	code := runFleetcat(t, "-net", "tcp", "-addr", addr,
		"-tenant", "home-1", "-token", "s3cret",
		"-retries", "8", "-backoff", "100ms", "-pcap", fx.pcap)
	if code != 0 {
		t.Fatalf("fleetcat exit = %d after daemon came up, want 0", code)
	}
	if got := d.Get("home-1").Status()["received_records"].(int64); got != int64(fx.packets) {
		t.Errorf("tenant received %d records, capture has %d", got, fx.packets)
	}
}

func TestFleetcatExhaustedRetriesIsExit4(t *testing.T) {
	fx := getFixture(t)
	// A listener that is immediately closed: every dial is refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	code := runFleetcat(t, "-net", "tcp", "-addr", addr,
		"-tenant", "home-1", "-token", "s3cret",
		"-retries", "2", "-backoff", "10ms", "-pcap", fx.pcap)
	if code != 4 {
		t.Fatalf("fleetcat exit = %d with no daemon, want 4", code)
	}
}

func TestFleetcatUsageErrorsAreExit2(t *testing.T) {
	if code := runFleetcat(t); code != 2 {
		t.Errorf("fleetcat exit = %d with no flags, want 2", code)
	}
	fx := getFixture(t)
	if code := runFleetcat(t, "-net", "tcp", "-addr", "x", "-tenant", "a",
		"-token", "b", "-pcap", fx.pcap, "-retries", "-1"); code != 2 {
		t.Errorf("fleetcat exit = %d with negative -retries, want 2", code)
	}
}
