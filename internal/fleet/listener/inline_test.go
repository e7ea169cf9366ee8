package listener

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/fleet"
	"behaviot/internal/netparse"
	"behaviot/internal/pcapio"
	"behaviot/internal/stream"
)

// appendFrame appends one wire record.
func appendFrame(dst []byte, ts time.Time, data []byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(ts.UnixNano()))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	return append(append(dst, hdr[:]...), data...)
}

// rawSource is a hand-driven connection past the hello, for tests that
// control exactly which bytes each write carries.
type rawSource struct {
	t *testing.T
	c *net.UnixConn
}

func dialRaw(t *testing.T, addr, id, token string) *rawSource {
	t.Helper()
	c, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := fmt.Fprintf(c, "%s %s %s\n", helloMagic, id, token); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, err := c.Read(buf); err != nil || string(buf[:n]) != "OK\n" {
		t.Fatalf("hello not accepted: %q, %v", buf[:n], err)
	}
	return &rawSource{t: t, c: c.(*net.UnixConn)}
}

func (r *rawSource) write(b []byte) {
	r.t.Helper()
	if _, err := r.c.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

// finish half-closes and returns the server's last line.
func (r *rawSource) finish() string {
	r.t.Helper()
	if err := r.c.CloseWrite(); err != nil {
		r.t.Fatal(err)
	}
	return r.lastLine()
}

func (r *rawSource) lastLine() string {
	r.t.Helper()
	if err := r.c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		r.t.Fatal(err)
	}
	line, err := io.ReadAll(r.c)
	if err != nil {
		r.t.Fatalf("reading the server's last line: %v", err)
	}
	return string(line)
}

func waitCounter(t *testing.T, tn *fleet.Tenant, key string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tn.Status()[key].(int64) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %v, want %d", key, tn.Status()[key], want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameSplitAcrossReads pins reassembly: a record may arrive in any
// number of pieces — header cut in two, payload cut in two, the next
// header riding along — and the records completed so far are ingested
// without waiting for the one still in flight.
func TestFrameSplitAcrossReads(t *testing.T) {
	fx := getFixture(t)
	d := newFleet(t, fx)
	defer d.Close()
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	defer srv.Close()
	src := dialRaw(t, serveUnix(t, srv), "home-1", "tok")

	var wire []byte
	var ends []int
	for _, r := range fx.recs[:4] {
		wire = appendFrame(wire, r.Time, r.Data)
		ends = append(ends, len(wire))
	}
	// Piece 1: all of record 0, 5 bytes of record 1's header.
	src.write(wire[:ends[0]+5])
	waitCounter(t, tn, "received_records", 1)
	// Piece 2: the rest of that header and half of record 1's payload.
	cut := ends[0] + recordHeaderLen + (ends[1]-ends[0]-recordHeaderLen)/2
	src.write(wire[ends[0]+5 : cut])
	time.Sleep(5 * time.Millisecond)
	if got := tn.Status()["received_records"].(int64); got != 1 {
		t.Fatalf("received %d records while record 1 is still half sent", got)
	}
	// Piece 3: the rest of record 1, all of record 2, one byte of record 3.
	src.write(wire[cut : ends[2]+1])
	waitCounter(t, tn, "received_records", 3)
	src.write(wire[ends[2]+1:])
	if got := src.finish(); got != "OK 4\n" {
		t.Errorf("final ack %q, want OK 4", got)
	}
	st := tn.Status()
	if st["fed_records"].(int64) != 4 || st["parse_errors"].(int64) != 0 {
		t.Errorf("fed=%v parse_errors=%v, want 4 and 0", st["fed_records"], st["parse_errors"])
	}
}

// TestLargeFramesTakeTheScratchPath pins the copy-out path for records
// the read window cannot hold — including a 200 KiB one — and the
// boundary beside it: the largest record that still fits the window
// whole. The stream must stay aligned across every one of them, which
// the ordinary records in between prove by decoding.
func TestLargeFramesTakeTheScratchPath(t *testing.T) {
	fx := getFixture(t)
	d := newFleet(t, fx)
	defer d.Close()
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d)
	defer srv.Close()
	src := dialRaw(t, serveUnix(t, srv), "home-1", "tok")

	// Oversized payloads are not decodable frames; they land in
	// parse_errors, which is all this test needs of them.
	sizes := []int{readWindow - recordHeaderLen, readWindow - recordHeaderLen + 1, 200 << 10, 40 << 10}
	var wire []byte
	for i, size := range sizes {
		r := fx.recs[i]
		wire = appendFrame(wire, r.Time, r.Data)
		wire = appendFrame(wire, r.Time, bytes.Repeat([]byte{0xA5}, size))
	}
	wire = appendFrame(wire, fx.recs[len(sizes)].Time, fx.recs[len(sizes)].Data)
	src.write(wire)
	want := 2*len(sizes) + 1
	if got := src.finish(); got != fmt.Sprintf("OK %d\n", want) {
		t.Errorf("final ack %q, want OK %d", got, want)
	}
	st := tn.Status()
	if st["received_records"].(int64) != int64(want) || st["fed_records"].(int64) != int64(len(sizes)+1) ||
		st["parse_errors"].(int64) != int64(len(sizes)) {
		t.Errorf("received=%v fed=%v parse_errors=%v, want %d / %d / %d", st["received_records"],
			st["fed_records"], st["parse_errors"], want, len(sizes)+1, len(sizes))
	}
}

// TestBadLengthRejectedAfterGoodRecords pins the length guard inside a
// batch: a zero-length or oversize header ends the connection with the
// same ERR line as ever, and the valid records that shared its read are
// consumed first, exactly as when they arrived one at a time.
func TestBadLengthRejectedAfterGoodRecords(t *testing.T) {
	fx := getFixture(t)
	for _, bad := range []uint32{0, DefaultMaxRecordLen + 1} {
		d := newFleet(t, fx)
		tn, err := d.Add("home-1", "tok")
		if err != nil {
			t.Fatal(err)
		}
		srv := New(d)
		src := dialRaw(t, serveUnix(t, srv), "home-1", "tok")
		var wire []byte
		for _, r := range fx.recs[:3] {
			wire = appendFrame(wire, r.Time, r.Data)
		}
		var hdr [recordHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[8:12], bad)
		src.write(append(wire, hdr[:]...))
		if got, want := src.lastLine(), fmt.Sprintf("ERR record length %d out of range\n", bad); got != want {
			t.Errorf("length %d: server said %q, want %q", bad, got, want)
		}
		if got := tn.Status()["received_records"].(int64); got != 3 {
			t.Errorf("length %d: %d records consumed before the bad header, want 3", bad, got)
		}
		srv.Close()
		d.Close()
	}
}

// shiftedStream is an endless record stream for the allocation pin: the
// fixture's stream repeated, each pass shifted forward in time by the
// stream's span so stream time keeps advancing the way a live home's
// does.
type shiftedStream struct {
	recs []pcapio.Record
	span time.Duration
	pass int
	next int
	buf  []byte // current frame
	off  int
}

func (s *shiftedStream) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if s.off == len(s.buf) {
			r := s.recs[s.next]
			s.buf = appendFrame(s.buf[:0], r.Time.Add(time.Duration(s.pass)*s.span), r.Data)
			s.off = 0
			if s.next++; s.next == len(s.recs) {
				s.next, s.pass = 0, s.pass+1
			}
		}
		c := copy(p[n:], s.buf[s.off:])
		n, s.off = n+c, s.off+c
	}
	return n, nil
}

// windowAllocs reports allocations per read window (hundreds of
// records) once src has warmed up: flow freelist, group maps and the
// batch slice reach their working size within a few passes.
func windowAllocs(t *testing.T, in *shiftedStream, ingest func()) float64 {
	t.Helper()
	for in.pass < 5 {
		ingest()
	}
	return testing.AllocsPerRun(200, ingest)
}

// TestInlineIngestAllocatesNothing pins the steady-state cost of the
// listener → monitor path at zero allocations: frame walk, batch hand-off,
// decode into the tenant's one packet, the shard lock and the monitor's
// per-packet gates. The first tenant's assembler knows no device, so
// every record crosses that whole path and then falls out of flow
// assembly — what is measured is the path alone, and it must be exactly
// zero per window. The second tenant monitors the devices for real;
// there the only allocations allowed are the ones classification makes
// per closed flow (features, DNS names), which a bare stream.Monitor
// fed the same records makes too — the path may add nothing to them.
func TestInlineIngestAllocatesNothing(t *testing.T) {
	fx := getFixture(t)
	span := fx.recs[len(fx.recs)-1].Time.Sub(fx.recs[0].Time) + time.Minute

	blind := fx.acfg
	blind.DeviceByIP = nil
	d, err := fleet.New(fleet.Config{Shards: 1, PipeSnap: fx.pipeSnap, AssemblerCfg: blind})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	// DNS answers are parsed (and their names allocated) before the
	// device lookup; leave them to the second half.
	var quiet []pcapio.Record
	for _, r := range fx.recs {
		if p, err := netparse.Decode(r.Data); err == nil && p.SrcPort != 53 && p.DstPort != 53 {
			quiet = append(quiet, r)
		}
	}
	in := &shiftedStream{recs: quiet, span: span}
	src := source{br: bufio.NewReaderSize(in, readWindow), t: tn}
	if allocs := windowAllocs(t, in, func() {
		if _, err := src.ingestBuffered(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("listener → monitor path allocates %v times per window, want 0", allocs)
	}
	st := tn.Status()
	if perWindow := st["received_records"].(int64) / 200; perWindow < 50 {
		t.Errorf("only ~%d records per window; the pin is not measuring a batch", perWindow)
	}
	if st["parse_errors"].(int64) != 0 || st["fed_records"].(int64) != st["packets"].(int64) {
		t.Errorf("stream did not reach the monitor intact: %v", st)
	}

	// Real monitoring: the same windows through a tenant and through a
	// bare monitor.
	d2 := newFleet(t, fx)
	defer d2.Close()
	tn2, err := d2.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	in2 := &shiftedStream{recs: fx.recs, span: span}
	src2 := source{br: bufio.NewReaderSize(in2, readWindow), t: tn2}
	viaListener := windowAllocs(t, in2, func() {
		if _, err := src2.ingestBuffered(); err != nil {
			t.Fatal(err)
		}
	})

	pipe, err := core.UnmarshalPipeline(fx.pipeSnap)
	if err != nil {
		t.Fatal(err)
	}
	mon := stream.NewMonitor(pipe, fx.acfg, stream.Config{RecycleFlows: true})
	in3 := &shiftedStream{recs: fx.recs, span: span}
	br := bufio.NewReaderSize(in3, readWindow)
	var pkt netparse.Packet
	var hdr [recordHeaderLen]byte
	frame := make([]byte, 0, 2048)
	bare := windowAllocs(t, in3, func() {
		for done := 0; done < readWindow; done += recordHeaderLen + len(frame) {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				t.Fatal(err)
			}
			frame = frame[:binary.LittleEndian.Uint32(hdr[8:12])]
			if _, err := io.ReadFull(br, frame); err != nil {
				t.Fatal(err)
			}
			if err := netparse.DecodeInto(&pkt, frame); err != nil {
				t.Fatal(err)
			}
			pkt.Timestamp = time.Unix(0, int64(binary.LittleEndian.Uint64(hdr[0:8])))
			mon.Feed(&pkt)
		}
	})
	t.Logf("allocations per %d KiB window: %v through the listener path, %v in a bare monitor", readWindow>>10, viaListener, bare)
	if viaListener > bare*1.05+1 {
		t.Errorf("listener path allocates %v per window, the monitor alone %v: the path adds allocations", viaListener, bare)
	}
}

// TestConcurrentSourcesOneTenant is the -race gate for ingesting on the
// connection goroutine: two connections feed ONE tenant while interval
// checkpoints land, Status, GET /tenants and the tenant's event and
// deviation rings are polled, and the tenant is restarted and finally
// removed mid-stream. It pins exact acks for
// streams that complete, received == fed + parse_errors on every
// incarnation, a restart that resumes from exactly the records its
// predecessor consumed, and that no batch enters a tenant after Remove
// has returned (PanicProbe runs inside Ingest, past the closed check).
func TestConcurrentSourcesOneTenant(t *testing.T) {
	fx := getFixture(t)
	var removed atomic.Bool
	d, err := fleet.New(fleet.Config{
		Shards:             2,
		PipeSnap:           fx.pipeSnap,
		Fingerprint:        "listener-test/v1",
		AssemblerCfg:       fx.acfg,
		StreamCfg:          stream.Config{},
		StoreRoot:          t.TempDir(),
		EventLogDir:        t.TempDir(),
		CheckpointInterval: 5 * time.Millisecond,
		PanicProbe: func(id string) {
			if id == "home-1" && removed.Load() {
				t.Error("a batch entered home-1's monitor after Remove returned")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add("home-2", "tok"); err != nil { // a neighbor, so /tenants walks more than one
		t.Fatal(err)
	}
	srv := New(d)
	defer srv.Close()
	addr := serveUnix(t, srv)
	mux := http.NewServeMux()
	d.RegisterHandlers(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	stopPolling := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stopPolling:
				return
			default:
			}
			if cur := d.Get("home-1"); cur != nil {
				cur.Status() // races the ingesting connections on purpose
			}
			// The ring reads race the ingesting connections' recordEvent /
			// recordDeviation appends unless ringMu covers both sides; 404
			// once home-1 is removed is fine.
			for _, path := range []string{"/tenants", "/tenants/home-1/events", "/tenants/home-1/deviations"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	checkBalance := func(what string, tn *fleet.Tenant) (received int64) {
		t.Helper()
		st := tn.Status()
		received = st["received_records"].(int64)
		fed, perr := st["fed_records"].(int64), st["parse_errors"].(int64)
		if received != fed+perr {
			t.Errorf("%s: received(%d) != fed(%d) + parse_errors(%d)", what, received, fed, perr)
		}
		if packets := st["packets"].(int64); packets != fed {
			t.Errorf("%s: monitor saw %d packets, tenant fed %d", what, packets, fed)
		}
		return received
	}

	// Round 1: both connections complete. Every 10th record is garbage,
	// so parse_errors is part of the balance.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := Dial("unix", addr, "home-1", "tok")
			if err != nil {
				t.Error(err)
				return
			}
			for i, r := range fx.recs {
				data := r.Data
				if i%10 == 9 {
					data = garbage
				}
				if err := s.Send(r.Time, data); err != nil {
					t.Error(err)
					return
				}
			}
			if consumed, err := s.Close(); err != nil || consumed != int64(len(fx.recs)) {
				t.Errorf("round 1: consumed %d of %d, err %v", consumed, len(fx.recs), err)
			}
		}()
	}
	wg.Wait()
	round1 := int64(2 * len(fx.recs))
	if len(tn.Deviations()) == 0 {
		t.Error("round 1 raised no deviation: the pollers' ring reads raced nothing")
	}
	if got := checkBalance("round 1", tn); got != round1 {
		t.Errorf("round 1: received %d, want %d", got, round1)
	}
	if got := tn.Status()["parse_errors"].(int64); got != 2*int64(len(fx.recs)/10) {
		t.Errorf("round 1: parse_errors %d, want %d", got, 2*(len(fx.recs)/10))
	}

	// stream sends until the server refuses or cuts the connection,
	// which is how a source learns its tenant was restarted or removed.
	stream := func(round string) {
		defer wg.Done()
		s, err := Dial("unix", addr, "home-1", "tok")
		if err != nil {
			t.Errorf("%s: %v", round, err)
			return
		}
		for {
			for _, r := range fx.recs {
				if s.Send(r.Time, r.Data) != nil {
					s.Abort()
					return
				}
			}
		}
	}

	// Round 2: Restart mid-stream. The old incarnation's final
	// checkpoint is what the new one resumes from, so their counters
	// must agree exactly — a record counted but not in the monitor (or
	// the reverse) would show here.
	wg.Add(2)
	go stream("round 2")
	go stream("round 2")
	waitFor(t, "round 2 traffic", func() bool { return tn.Status()["received_records"].(int64) > round1+500 })
	reborn, err := d.Restart("home-1")
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	atRestart := checkBalance("old incarnation", tn)
	if got := checkBalance("new incarnation", reborn); got != atRestart {
		t.Errorf("restart resumed at %d records, predecessor consumed %d", got, atRestart)
	}

	// Round 3: Remove mid-stream. Nothing may enter the tenant once
	// Remove has returned, and its counters must not move again.
	wg.Add(2)
	go stream("round 3")
	go stream("round 3")
	waitFor(t, "round 3 traffic", func() bool { return reborn.Status()["received_records"].(int64) > atRestart+500 })
	if err := d.Remove("home-1"); err != nil {
		t.Fatal(err)
	}
	removed.Store(true)
	atRemove := checkBalance("removed tenant", reborn)
	wg.Wait()
	if got := checkBalance("removed tenant, sources gone", reborn); got != atRemove {
		t.Errorf("removed tenant's received moved from %d to %d", atRemove, got)
	}
	close(stopPolling)
	pollers.Wait()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
