// Package listener is the fleet daemon's ingest front end: it accepts
// many concurrent pcap-record sources over unix sockets and TCP, one
// connection per source, and ingests each source's records into its
// tenant on the connection's own goroutine. The wire protocol is
// deliberately tiny:
//
//	client → server: "BEHAVIOT/1 <tenant-id> <token>\n"
//	server → client: "OK\n"                      (or "ERR <reason>\n" + close)
//	client → server: repeated records, each a 12-byte little-endian
//	                 header [u64 capture-time unixnano][u32 payload len]
//	                 followed by the raw record payload
//	client → server: half-close (CloseWrite) when done
//	server → client: "OK <consumed>\n"           (final ack, then close)
//
// Authentication is per source: the hello token must match the
// tenant's registered ingest token (constant-time compare in the fleet
// registry). There is no queue behind the socket: the handler
// classifies what it read, under its tenant's shard lock, before it
// reads again, so a source that outruns its shard fills its own socket
// buffer and nobody else's. The final ack lets a source verify the
// server consumed everything it sent, which is how the fleet-soak gate
// proves clean SIGTERM drains.
package listener

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"behaviot/internal/fleet"
)

const (
	// helloMagic opens every connection; the version digit lets the
	// protocol evolve without breaking old sources outright.
	helloMagic = "BEHAVIOT/1"
	// recordHeaderLen is the fixed per-record header size.
	recordHeaderLen = 12
	// DefaultMaxRecordLen bounds one record's payload (generous for any
	// link-layer frame; a header claiming more is a protocol error).
	DefaultMaxRecordLen = 1 << 18
	// maxHelloLen bounds the hello line so a garbage peer cannot make
	// the server buffer unbounded input before authentication.
	maxHelloLen = 256
	// DefaultHelloTimeout bounds the unauthenticated hello exchange.
	// An unauthenticated peer that connects and stalls would otherwise
	// pin a goroutine, a connection slot, and a read buffer until
	// server Close — a trivial slowloris hold on a reachable port.
	DefaultHelloTimeout = 10 * time.Second
	// readWindow is each connection's read buffer: one read, one batch.
	readWindow = 32 << 10
)

// Server accepts ingest connections and routes them to fleet tenants.
// One Server can serve any number of listeners (unix + TCP together).
type Server struct {
	// HelloTimeout is the read deadline covering the unauthenticated
	// hello exchange; zero means DefaultHelloTimeout. Set before Serve.
	HelloTimeout time.Duration

	d *fleet.Daemon

	mu        sync.Mutex // guards listeners, conns, closed
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool

	wg sync.WaitGroup
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("listener: server closed")

// New builds a server front end for the given fleet daemon.
func New(d *fleet.Daemon) *Server {
	return &Server{
		d:         d,
		listeners: map[net.Listener]struct{}{},
		conns:     map[net.Conn]struct{}{},
	}
}

// Serve accepts connections on l until Close (which returns
// ErrServerClosed) or a non-temporary accept error. Call it on its own
// goroutine, once per listener.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close() //lint:ignore errcheck server already closed; the accept socket is being discarded
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close() //lint:ignore errcheck connection is being refused during shutdown
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops accepting, severs every live connection, and waits for
// handlers to finish — each completes the batch it is ingesting, so
// every record counted is in its tenant's monitor when this returns.
// The caller runs fleet.Daemon.Close next. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close() //lint:ignore errcheck best-effort teardown; Serve observes closed and exits regardless
	}
	for c := range s.conns {
		c.Close() //lint:ignore errcheck best-effort teardown; the handler's read fails and it exits
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// forget unregisters a finished connection.
func (s *Server) forget(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// handleConn authenticates one source and ingests its records into its
// tenant until the source half-closes, misbehaves, or is cut off.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer s.forget(c)
	defer c.Close()

	// The peer is unauthenticated until the hello round-trips; bound
	// how long it may hold this goroutine before proving it belongs.
	hello := s.HelloTimeout
	if hello <= 0 {
		hello = DefaultHelloTimeout
	}
	c.SetReadDeadline(time.Now().Add(hello)) //lint:ignore errcheck a conn that rejects deadlines just keeps the pre-fix behavior

	br := bufio.NewReaderSize(c, readWindow)
	id, token, err := readHello(br)
	if err != nil {
		writeLine(c, "ERR bad hello")
		return
	}
	t, err := s.d.Authenticate(id, token)
	if err != nil {
		writeLine(c, "ERR unauthorized")
		return
	}
	if !writeLine(c, "OK") {
		return
	}
	// Authenticated: drop the hello deadline. There is no idle limit: a
	// quiet home legitimately sends nothing for long stretches.
	c.SetReadDeadline(time.Time{}) //lint:ignore errcheck symmetric with the arm above

	src := source{br: br, t: t}
	var consumed int64
	for {
		n, err := src.ingestBuffered()
		consumed += int64(n)
		var badLen recordLenError
		switch {
		case err == nil:
			continue
		case err == io.EOF:
			// Clean half-close: every record sent was consumed.
			writeLine(c, fmt.Sprintf("OK %d", consumed))
		case errors.As(err, &badLen):
			writeLine(c, "ERR "+err.Error())
		case errors.Is(err, fleet.ErrTenantQuarantined):
			// Unlike "closed": an operator restart brings the tenant back.
			writeLine(c, "ERR tenant quarantined")
		case errors.Is(err, fleet.ErrTenantClosed):
			writeLine(c, "ERR tenant closed")
		}
		return // any other error is a read failure: nobody to tell
	}
}

// recordLenError is a header whose length is zero or beyond the bound.
type recordLenError uint32

func (e recordLenError) Error() string {
	return fmt.Sprintf("record length %d out of range", uint32(e))
}

// source is one authenticated connection's ingest state.
type source struct {
	br      *bufio.Reader
	t       *fleet.Tenant
	recs    []fleet.Record // reused batch; Data points into br's window or scratch
	scratch []byte         // holds a record larger than br's window
}

// ingestBuffered blocks until one whole record has arrived, then
// ingests it with every other complete record the read left in the
// window: one Tenant.Ingest call — one shard-lock acquisition — per
// socket read, not per record. Records are handed over in place and the
// window released afterwards. io.EOF is a clean close on a record boundary.
func (s *source) ingestBuffered() (int, error) {
	hdr, err := s.br.Peek(recordHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[8:])
	if n == 0 || n > DefaultMaxRecordLen {
		return 0, recordLenError(n)
	}
	size := recordHeaderLen + int(n)
	if size > s.br.Size() {
		// Too large to ever sit in the window whole: copy it out.
		if cap(s.scratch) < size {
			s.scratch = make([]byte, size)
		}
		if _, err := io.ReadFull(s.br, s.scratch[:size]); err != nil {
			return 0, err
		}
		return s.t.Ingest(append(s.recs[:0], frame(s.scratch[:size])))
	}
	if _, err := s.br.Peek(size); err != nil {
		if err == io.EOF { // the header arrived, so this is mid-record
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	win, _ := s.br.Peek(s.br.Buffered()) // cannot fail: asks only for what is buffered
	s.recs = s.recs[:0]
	used := 0
	// A bad or incomplete header ends the batch; the next call handles it.
	for len(win)-used >= recordHeaderLen {
		n := binary.LittleEndian.Uint32(win[used+8:])
		if n == 0 || n > DefaultMaxRecordLen || len(win)-used-recordHeaderLen < int(n) {
			break
		}
		s.recs = append(s.recs, frame(win[used:used+recordHeaderLen+int(n)]))
		used += recordHeaderLen + int(n)
	}
	consumed, err := s.t.Ingest(s.recs)
	s.br.Discard(used) //lint:ignore errcheck used never exceeds what is buffered
	return consumed, err
}

// frame splits one complete wire record into time and payload.
func frame(b []byte) fleet.Record {
	return fleet.Record{Time: time.Unix(0, int64(binary.LittleEndian.Uint64(b))), Data: b[recordHeaderLen:]}
}

// readHello reads and parses the bounded hello line.
func readHello(br *bufio.Reader) (id, token string, err error) {
	line, err := readLine(br, maxHelloLen)
	if err != nil {
		return "", "", err
	}
	parts := strings.Split(line, " ")
	if len(parts) != 3 || parts[0] != helloMagic || parts[1] == "" || parts[2] == "" {
		return "", "", fmt.Errorf("listener: malformed hello")
	}
	return parts[1], parts[2], nil
}

// readLine reads one \n-terminated line of at most max bytes.
func readLine(br *bufio.Reader, max int) (string, error) {
	line := make([]byte, 0, 64)
	for {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return string(line), nil
		}
		if len(line) >= max {
			return "", fmt.Errorf("listener: line exceeds %d bytes", max)
		}
		line = append(line, b)
	}
}

// writeLine writes one protocol line, reporting success. A false
// return means the peer is gone; callers just stop.
func writeLine(c net.Conn, s string) bool {
	_, err := io.WriteString(c, s+"\n")
	return err == nil
}
