package listener

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// RefusedError is a server-side "ERR <reason>" refusal, surfaced as a
// typed error so clients can tell a permanent rejection (bad
// credentials — no retry will ever heal it) from a transient one (the
// tenant is quarantined until an operator restart; the tenant was
// removed). Reason is the server's wire text after "ERR ".
type RefusedError struct {
	Reason string
}

func (e *RefusedError) Error() string {
	return "listener: server refused: " + e.Reason
}

// AuthFailure reports whether the refusal is an authentication or
// protocol rejection that retrying with the same inputs cannot fix.
func (e *RefusedError) AuthFailure() bool {
	return e.Reason == "unauthorized" || e.Reason == "bad hello"
}

// asRefusal converts a server response line to a RefusedError when it
// is an explicit refusal, or nil when it is not.
func asRefusal(resp string) *RefusedError {
	if reason, ok := strings.CutPrefix(resp, "ERR "); ok {
		return &RefusedError{Reason: reason}
	}
	return nil
}

// Sender is the client half of the ingest protocol: one authenticated
// connection streaming records for one tenant. It is what behaviotd's
// fleet-soak harness and any external capture relay use.
type Sender struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	sent int64
}

// Dial connects to a listener (network "unix" or "tcp"), performs the
// hello exchange for the given tenant, and returns a ready Sender.
func Dial(network, addr, tenantID, token string) (*Sender, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	s := &Sender{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 32<<10),
		br:   bufio.NewReader(conn),
	}
	if _, err := fmt.Fprintf(s.bw, "%s %s %s\n", helloMagic, tenantID, token); err != nil {
		conn.Close() //lint:ignore errcheck dial failed; the write error is what gets reported
		return nil, err
	}
	if err := s.bw.Flush(); err != nil {
		conn.Close() //lint:ignore errcheck dial failed; the flush error is what gets reported
		return nil, err
	}
	resp, err := readLine(s.br, maxHelloLen)
	if err != nil {
		conn.Close() //lint:ignore errcheck dial failed; the read error is what gets reported
		return nil, err
	}
	if resp != "OK" {
		conn.Close() //lint:ignore errcheck server refused the hello; its reason is what gets reported
		if re := asRefusal(resp); re != nil {
			return nil, re
		}
		return nil, fmt.Errorf("listener: server refused hello: %s", resp)
	}
	return s, nil
}

// Send streams one record. Writes are buffered; Close flushes.
func (s *Sender) Send(ts time.Time, data []byte) error {
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(ts.UnixNano()))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	if _, err := s.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := s.bw.Write(data); err != nil {
		return err
	}
	s.sent++
	return nil
}

// Sent returns how many records Send has accepted so far.
func (s *Sender) Sent() int64 { return s.sent }

// Close flushes, half-closes the write side, and waits for the
// server's final "OK <consumed>" ack. It returns the server's consumed
// count; a count different from Sent means the server lost records
// (callers like the soak harness assert equality).
func (s *Sender) Close() (consumed int64, err error) {
	defer s.conn.Close()
	if err := s.bw.Flush(); err != nil {
		return 0, err
	}
	type closeWriter interface{ CloseWrite() error }
	cw, ok := s.conn.(closeWriter)
	if !ok {
		return 0, fmt.Errorf("listener: %T cannot half-close", s.conn)
	}
	if err := cw.CloseWrite(); err != nil {
		return 0, err
	}
	resp, err := readLine(s.br, maxHelloLen)
	if err != nil {
		return 0, fmt.Errorf("listener: reading final ack: %w", err)
	}
	rest, ok := strings.CutPrefix(resp, "OK ")
	if !ok {
		if re := asRefusal(resp); re != nil {
			return 0, re
		}
		return 0, fmt.Errorf("listener: server reported: %s", resp)
	}
	consumed, err = strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("listener: malformed final ack %q", resp)
	}
	return consumed, nil
}

// Abort severs the connection without the half-close handshake —
// the client side of a mid-stream crash, used by drain tests.
func (s *Sender) Abort() {
	s.conn.Close() //lint:ignore errcheck abort is deliberately fire-and-forget
}
