package listener

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/datasets"
	"behaviot/internal/fleet"
	"behaviot/internal/flows"
	"behaviot/internal/pcapio"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// listenerFixture is a minimal trained deployment (idle-only training,
// two devices) plus one encoded record stream — enough to exercise the
// wire protocol without the full fleet fixture's cost.
type listenerFixture struct {
	pipeSnap []byte
	acfg     flows.Config
	recs     []pcapio.Record
}

var lfx *listenerFixture

func getFixture(t testing.TB) *listenerFixture {
	t.Helper()
	if lfx != nil {
		return lfx
	}
	tb := testbed.New()
	devices := []*testbed.DeviceProfile{tb.Device("TPLink Plug"), tb.Device("Gosund Bulb")}
	idle := datasets.Idle(tb, 1, datasets.DefaultStart, 1, devices, 0)
	pipe, err := core.Train(idle, map[string][]*flows.Flow{}, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := testbed.NewGenerator(tb, 7)
	plug, bulb := tb.Device("TPLink Plug"), tb.Device("Gosund Bulb")
	start := datasets.DefaultStart.Add(3 * 24 * time.Hour)
	// The bulb dies after half an hour, so silence deviations reach the
	// tenant's ring and event log while the plug's traffic continues.
	pkts := testbed.MergePackets(
		g.BootstrapDNS(plug, start.Add(-time.Minute)),
		g.BootstrapDNS(bulb, start.Add(-50*time.Second)),
		g.PeriodicWindow(plug, start, start.Add(2*time.Hour)),
		g.PeriodicWindow(bulb, start, start.Add(30*time.Minute)),
	)
	recs, err := datasets.EncodePackets(pkts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 50 {
		t.Fatalf("fixture stream has only %d records", len(recs))
	}
	lfx = &listenerFixture{
		pipeSnap: core.MarshalPipeline(pipe),
		acfg:     flows.Config{LocalPrefix: tb.LocalPrefix, DeviceByIP: tb.DeviceByIP()},
		recs:     recs,
	}
	return lfx
}

func newFleet(t testing.TB, fx *listenerFixture) *fleet.Daemon {
	t.Helper()
	d, err := fleet.New(fleet.Config{
		Shards:       2,
		PipeSnap:     fx.pipeSnap,
		Fingerprint:  "listener-test/v1",
		AssemblerCfg: fx.acfg,
		StreamCfg:    stream.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// serveUnix starts a Server on a fresh unix socket and returns its path.
func serveUnix(t *testing.T, srv *Server) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) // Serve returns ErrServerClosed on the test's Close path
	return path
}

func sendAll(t *testing.T, s *Sender, recs []pcapio.Record) {
	t.Helper()
	for _, r := range recs {
		if err := s.Send(r.Time, r.Data); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
}

// TestIngestRoundTrip pins the happy path over both unix and TCP: a
// source streams records, half-closes, and the final ack confirms the
// server consumed every one.
func TestIngestRoundTrip(t *testing.T) {
	fx := getFixture(t)
	for _, network := range []string{"unix", "tcp"} {
		network := network
		t.Run(network, func(t *testing.T) {
			d := newFleet(t, fx)
			defer d.Close()
			tn, err := d.Add("home-1", "tok-1")
			if err != nil {
				t.Fatal(err)
			}
			srv := New(d)
			defer srv.Close()

			var addr string
			if network == "unix" {
				addr = serveUnix(t, srv)
			} else {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				addr = l.Addr().String()
				go srv.Serve(l) // Serve returns ErrServerClosed on the test's Close path
			}

			s, err := Dial(network, addr, "home-1", "tok-1")
			if err != nil {
				t.Fatal(err)
			}
			sendAll(t, s, fx.recs)
			consumed, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if consumed != int64(len(fx.recs)) {
				t.Errorf("server consumed %d records, sent %d", consumed, len(fx.recs))
			}
			if got := tn.Status()["received_records"].(int64); got != int64(len(fx.recs)) {
				t.Errorf("tenant received %d records, sent %d", got, len(fx.recs))
			}
		})
	}
}

// TestAuthRejection pins per-source auth: a wrong token, an unknown
// tenant, and a malformed hello are all refused before any record is
// accepted — with the same error for wrong-token and unknown-tenant so
// the listener is not a tenant-ID oracle.
func TestAuthRejection(t *testing.T) {
	fx := getFixture(t)
	d := newFleet(t, fx)
	defer d.Close()
	if _, err := d.Add("home-1", "right-token"); err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	defer srv.Close()
	addr := serveUnix(t, srv)

	// The refusal is typed, and classified as an auth failure — the
	// signal fleetcat uses to exit 3 instead of burning retries.
	var re *RefusedError
	if _, err := Dial("unix", addr, "home-1", "wrong-token"); err == nil {
		t.Error("Dial with a wrong token succeeded")
	} else if !errors.As(err, &re) {
		t.Errorf("wrong-token error = %T (%v), want *RefusedError", err, err)
	} else if !re.AuthFailure() {
		t.Errorf("wrong-token refusal %q not classified as auth failure", re.Reason)
	}
	if _, err := Dial("unix", addr, "ghost", "right-token"); err == nil {
		t.Error("Dial for an unknown tenant succeeded")
	} else if !errors.As(err, &re) || !re.AuthFailure() {
		t.Errorf("unknown-tenant error = %v, want auth-failure RefusedError", err)
	}

	// Raw malformed hello.
	c, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(c, "HTTP/1.1 GET /\n"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	n, _ := c.Read(buf)
	if got := string(buf[:n]); got != "ERR bad hello\n" {
		t.Errorf("malformed hello got %q, want ERR bad hello", got)
	}
	c.Close()
}

// TestHelloTimeoutDropsSilentPeer pins the slowloris guard: a peer
// that connects and never completes the hello is disconnected when the
// hello deadline expires, instead of pinning a handler goroutine and
// its buffer until server Close.
func TestHelloTimeoutDropsSilentPeer(t *testing.T) {
	fx := getFixture(t)
	d := newFleet(t, fx)
	defer d.Close()
	if _, err := d.Add("home-1", "tok"); err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	srv.HelloTimeout = 100 * time.Millisecond
	defer srv.Close()
	addr := serveUnix(t, srv)

	c, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send nothing. The server must give up on us without our help;
	// the client-side deadline only stops the test hanging on failure.
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	start := time.Now()
	var readErr error
	for readErr == nil {
		// The server may write an ERR line on its way out; keep reading
		// until it actually closes the connection.
		_, readErr = c.Read(buf)
	}
	if ne, ok := readErr.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never dropped the silent peer; the client-side deadline fired instead")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Errorf("server took %v to drop a silent peer with a 100ms hello timeout", waited)
	}
}

// TestOversizedRecordRejected pins the length guard: a header claiming
// a payload beyond the cap ends the connection with an error line
// instead of buffering unbounded input.
func TestOversizedRecordRejected(t *testing.T) {
	fx := getFixture(t)
	d := newFleet(t, fx)
	defer d.Close()
	if _, err := d.Add("home-1", "tok"); err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	defer srv.Close()
	addr := serveUnix(t, srv)

	c, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := fmt.Fprintf(c, "%s home-1 tok\n", helloMagic); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "OK\n" {
		t.Fatalf("hello not accepted: %q, %v", buf[:n], err)
	}
	hdr := make([]byte, recordHeaderLen)
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xff, 0xff, 0xff, 0xff // length 2^32-1
	if _, err := c.Write(hdr); err != nil {
		t.Fatal(err)
	}
	n, _ = c.Read(buf)
	if got := string(buf[:n]); len(got) < 4 || got[:4] != "ERR " {
		t.Errorf("oversized record got %q, want an ERR line", got)
	}
}

// TestConcurrentSources pins many sources streaming at once over one
// socket: every sender's final ack matches what it sent, and every
// tenant's counters match its own stream — no cross-talk.
func TestConcurrentSources(t *testing.T) {
	const sources = 25
	fx := getFixture(t)
	d := newFleet(t, fx)
	defer d.Close()
	tenants := make([]*fleet.Tenant, sources)
	for i := range tenants {
		tn, err := d.Add(fmt.Sprintf("home-%02d", i), fmt.Sprintf("tok-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		tenants[i] = tn
	}
	srv := New(d)
	defer srv.Close()
	addr := serveUnix(t, srv)

	var wg sync.WaitGroup
	for i := 0; i < sources; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each source sends a distinct prefix of the stream so the
			// per-tenant counts are distinguishable.
			recs := fx.recs[:50+i]
			s, err := Dial("unix", addr, fmt.Sprintf("home-%02d", i), fmt.Sprintf("tok-%02d", i))
			if err != nil {
				t.Errorf("source %d: %v", i, err)
				return
			}
			for _, r := range recs {
				if err := s.Send(r.Time, r.Data); err != nil {
					t.Errorf("source %d: %v", i, err)
					return
				}
			}
			consumed, err := s.Close()
			if err != nil {
				t.Errorf("source %d: %v", i, err)
				return
			}
			if consumed != int64(len(recs)) {
				t.Errorf("source %d: consumed %d, sent %d", i, consumed, len(recs))
			}
		}(i)
	}
	wg.Wait()
	for i, tn := range tenants {
		if got := tn.Status()["received_records"].(int64); got != int64(50+i) {
			t.Errorf("tenant %02d received %d records, want %d", i, got, 50+i)
		}
	}
}

// TestServerCloseSeversMidStream pins shutdown semantics: sources cut
// mid-stream lose their connection (no final ack), but everything the
// server accepted before the cut is drained into monitors by the fleet
// close — received == fed + parseErrors, nothing stuck in queues.
func TestServerCloseSeversMidStream(t *testing.T) {
	fx := getFixture(t)
	d := newFleet(t, fx)
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	addr := serveUnix(t, srv)

	s, err := Dial("unix", addr, "home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	sendAll(t, s, fx.recs[:100])
	// The sender's writes are buffered; nudge them out without the
	// half-close so the stream is genuinely mid-flight, then sever.
	if err := s.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	st := tn.Status()
	received := st["received_records"].(int64)
	fed := st["fed_records"].(int64)
	perr := st["parse_errors"].(int64)
	if received > 100 {
		t.Errorf("received %d records, only 100 were sent", received)
	}
	if received != fed+perr {
		t.Errorf("received(%d) != fed(%d) + parse_errors(%d)", received, fed, perr)
	}
}
