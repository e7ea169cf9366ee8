package listener

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"behaviot/internal/netparse"
)

// pipeConn is one end of an in-memory connection built from two
// io.Pipes, so that — unlike net.Pipe — the client can half-close, and
// every client Write reaches the server as reads of exactly those
// bytes: the fuzzer chooses where the read window's fills are cut.
type pipeConn struct {
	net.Conn // deadlines and addresses are never reached: nil is fine
	r        *io.PipeReader
	w        *io.PipeWriter
}

func (c pipeConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c pipeConn) Write(p []byte) (int, error)     { return c.w.Write(p) }
func (c pipeConn) SetReadDeadline(time.Time) error { return nil }
func (c pipeConn) Close() error {
	c.r.Close()
	return c.w.Close()
}

func newPipeConns() (client, server pipeConn) {
	cr, sw := io.Pipe()
	sr, cw := io.Pipe()
	return pipeConn{r: cr, w: cw}, pipeConn{r: sr, w: sw}
}

// referenceWalk is the naive reading of the wire protocol: it copies
// every frame out of the stream, one allocation each, and returns the
// frames that precede the first bad length or the truncated tail,
// together with the server's last line (none when the stream stops
// inside a frame: nobody is left to tell).
func referenceWalk(stream []byte) (frames [][]byte, last string) {
	for len(stream) > 0 {
		if len(stream) < recordHeaderLen {
			return frames, ""
		}
		n := binary.LittleEndian.Uint32(stream[8:])
		if n == 0 || n > DefaultMaxRecordLen {
			return frames, fmt.Sprintf("ERR record length %d out of range\n", n)
		}
		if len(stream)-recordHeaderLen < int(n) {
			return frames, ""
		}
		frames = append(frames, bytes.Clone(stream[recordHeaderLen:recordHeaderLen+int(n)]))
		stream = stream[recordHeaderLen+int(n):]
	}
	return frames, fmt.Sprintf("OK %d\n", len(frames))
}

// chunkLen maps one fuzz byte to a write size: mostly a few bytes, so
// headers and payloads get cut anywhere, sometimes kilobytes, so a read
// fills the window with many frames or overruns it.
func chunkLen(b byte) int {
	if b < 192 {
		return 1 + int(b)%48
	}
	return (int(b) - 191) << 10
}

// FuzzFrameWalk holds the borrow contract of the ingest path from the
// outside. Arbitrary bytes, cut into arbitrary reads, go through
// handleConn into a real tenant; the in-place frame walk over the bufio
// window must account for exactly the frames the allocate-per-frame
// reference finds — received_records is that count, exactly the frames
// whose private copies decode are fed and the rest are parse errors (so
// the bytes lent to Ingest were the frame's own), and the connection's
// last line is the reference's — and must never index outside the
// window (a panic in the walk is outside the tenant's recover and kills
// the run).
func FuzzFrameWalk(f *testing.F) {
	fx := getFixture(f)
	var good []byte
	for _, r := range fx.recs[:6] {
		good = appendFrame(good, r.Time, r.Data)
	}
	var badLen [recordHeaderLen]byte
	f.Add([]byte{}, []byte{})
	f.Add(good, []byte{})
	f.Add(good, []byte{4, 0, 17, 200})
	f.Add(good[:len(good)-3], []byte{30})
	f.Add(append(bytes.Clone(good), badLen[:]...), []byte{255})
	binary.LittleEndian.PutUint32(badLen[8:], DefaultMaxRecordLen+1)
	f.Add(append(bytes.Clone(good[:len(good)/2]), badLen[:]...), []byte{11})
	big := appendFrame(bytes.Clone(good), fx.recs[0].Time, bytes.Repeat([]byte{0xA5}, readWindow+1))
	f.Add(appendFrame(big, fx.recs[6].Time, fx.recs[6].Data), []byte{250, 3})

	d := newFleet(f, fx)
	f.Cleanup(func() { d.Close() })
	srv := New(d)

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		// A tenant per input: what one stream leaves in the monitor
		// must not decide which code the next one reaches.
		tn, err := d.Add("home-1", "tok")
		if err != nil {
			t.Fatal(err)
		}
		defer d.Remove("home-1") // no store behind this fleet: Remove only drains

		client, server := newPipeConns()
		srv.wg.Add(1)
		go srv.handleConn(server)
		if _, err := fmt.Fprintf(client, "%s home-1 tok\n", helloMagic); err != nil {
			t.Fatal(err)
		}
		ok := make([]byte, 3)
		if _, err := io.ReadFull(client, ok); err != nil || string(ok) != "OK\n" {
			t.Fatalf("hello not accepted: %q, %v", ok, err)
		}
		// The server stops reading at a bad length; a write it never
		// reads fails when it closes its end, which is fine.
		go func() {
			defer client.w.Close()
			for rest, i := stream, 0; len(rest) > 0; i++ {
				n := len(rest)
				if len(cuts) > 0 {
					n = min(n, chunkLen(cuts[i%len(cuts)]))
				}
				if _, err := client.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
		}()
		last, err := io.ReadAll(client)
		if err != nil {
			t.Fatal(err)
		}

		frames, wantLast := referenceWalk(stream)
		if string(last) != wantLast {
			t.Errorf("server's last line %q, reference says %q", last, wantLast)
		}
		var wantFed int64
		for _, frame := range frames {
			if _, err := netparse.Decode(frame); err == nil {
				wantFed++
			}
		}
		st := tn.Status()
		received, fed, perr := st["received_records"].(int64), st["fed_records"].(int64), st["parse_errors"].(int64)
		if received != int64(len(frames)) {
			t.Errorf("received %d records, reference walk finds %d frames", received, len(frames))
		}
		if fed != wantFed || fed+perr != received {
			t.Errorf("fed %d + parse_errors %d of %d received; the reference's copies decode %d times",
				fed, perr, received, wantFed)
		}
	})
}
