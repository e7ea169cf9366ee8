package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// The rig speaks the internal/fleet/listener wire protocol itself:
// listener.Sender buffers 32 KiB and cannot flush, which would add
// milliseconds of generator-side delay to an open-loop schedule. Here
// every tick is one Write of exactly the records then due.
const (
	helloMagic = "BEHAVIOT/1"
	// visitTimeout bounds one dial-to-final-ack exchange.
	visitTimeout = 30 * time.Second
)

// appendFrame appends one record: [u64 unixnano][u32 len] + payload,
// little endian.
func appendFrame(buf []byte, ts int64, data []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ts))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	return append(buf, data...)
}

// ingestConn is one authenticated ingest connection.
type ingestConn struct {
	c  net.Conn
	br *bufio.Reader
}

// dialIngest connects to the daemon's unix ingest socket and completes
// the hello exchange for a tenant.
func dialIngest(sock, tenant, token string, timeout time.Duration) (*ingestConn, error) {
	c, err := net.DialTimeout("unix", sock, timeout)
	if err != nil {
		return nil, err
	}
	ic := &ingestConn{c: c, br: bufio.NewReader(c)}
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		ic.abort()
		return nil, err
	}
	if _, err := fmt.Fprintf(c, "%s %s %s\n", helloMagic, tenant, token); err != nil {
		ic.abort()
		return nil, err
	}
	resp, err := ic.br.ReadString('\n')
	if err != nil {
		ic.abort()
		return nil, fmt.Errorf("reading hello reply: %w", err)
	}
	if resp != "OK\n" {
		ic.abort()
		return nil, fmt.Errorf("server refused hello: %s", strings.TrimSpace(resp))
	}
	return ic, nil
}

func (ic *ingestConn) abort() {
	ic.c.Close() //lint:ignore errcheck the connection is being discarded after an error
}

// finish half-closes, reads the server's "OK <consumed>" final ack and
// closes the connection.
func (ic *ingestConn) finish() (consumed int64, err error) {
	defer ic.c.Close() //lint:ignore errcheck the ack, not the close result, is the protocol outcome
	cw, ok := ic.c.(interface{ CloseWrite() error })
	if !ok {
		return 0, fmt.Errorf("%T cannot half-close", ic.c)
	}
	if err := cw.CloseWrite(); err != nil {
		return 0, err
	}
	resp, err := ic.br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reading final ack: %w", err)
	}
	rest, ok := strings.CutPrefix(strings.TrimSuffix(resp, "\n"), "OK ")
	if !ok {
		return 0, fmt.Errorf("server reported: %s", strings.TrimSpace(resp))
	}
	return strconv.ParseInt(rest, 10, 64)
}

// tick is the send period: all records that fell due since the last tick
// go out in one Write.
const tick = time.Millisecond

// pacer is an open-loop schedule: record i is due at t0 + i/rate,
// whatever happened to the records before it.
type pacer struct {
	t0   time.Time
	rate int // records per second
}

// due returns when record i is due.
func (p pacer) due(i int) time.Time {
	return p.t0.Add(time.Duration(int64(i) * int64(time.Second) / int64(p.rate)))
}

// dueCount returns how many of total records are due at now.
func (p pacer) dueCount(now time.Time, total int) int {
	el := now.Sub(p.t0)
	if el < 0 {
		return 0
	}
	// Record i is due when i*1s <= elapsed*rate; elapsed stays far below
	// the ~26 h at which this product would overflow.
	n := int(int64(el)*int64(p.rate)/int64(time.Second)) + 1
	if n > total {
		n = total
	}
	return n
}

// nextTick returns the first tick boundary after now.
func (p pacer) nextTick(now time.Time) time.Time {
	k := now.Sub(p.t0)/tick + 1
	return p.t0.Add(k * tick)
}

// connPlan is what one connection sends: total records on the pacer's
// schedule, in visits of visit records per dial.
type connPlan struct {
	sock  string // the daemon's unix ingest socket
	pace  pacer
	total int
	// visit is the number of records per dial; 0 = one dial for all.
	visit int
	// route maps the connection's j-th record to its tenant and to the
	// index of the record within that tenant's stream.
	route func(j int) (tenant, idx int)
	// stream returns the record stream of a tenant.
	stream func(tenant int) *recStream
}

// connResult is what a connection measured about itself.
type connResult struct {
	sent     int
	lastSent time.Time
	// lateNS holds, per tick, how long after the tick boundary the
	// generator woke: its own lateness (scheduling, GC), kept apart from
	// time spent blocked in Write or waiting for an ack, which is the
	// daemon pushing back and shows in the latencies instead.
	lateNS []int64
	visits int
	err    error
}

// run drives the plan to completion. It never retries: a refused dial, a
// short ack or a write error fails the run.
func (p connPlan) run() connResult {
	var res connResult
	per := p.visit
	if per == 0 {
		per = p.total
	}
	buf := make([]byte, 0, 64<<10)
	for start := 0; start < p.total; start += per {
		end := min(start+per, p.total)
		tenant, _ := p.route(start)
		ic, err := dialIngest(p.sock, tenantID(tenant), tenantToken(tenant), visitTimeout)
		if err != nil {
			res.err = fmt.Errorf("tenant %s: %w", tenantID(tenant), err)
			return res
		}
		res.visits++
		//lint:ignore errcheck a connection that rejects deadlines only loses the hang guard
		ic.c.SetDeadline(p.pace.due(end).Add(visitTimeout))
		src := p.stream(tenant)
		for res.sent < end {
			now := time.Now()
			due := min(p.pace.dueCount(now, p.total), end)
			if due > res.sent {
				buf = buf[:0]
				for j := res.sent; j < due; j++ {
					_, idx := p.route(j)
					ts, data := src.at(idx)
					buf = appendFrame(buf, ts, data)
				}
				if _, err := ic.c.Write(buf); err != nil {
					ic.abort()
					res.err = fmt.Errorf("tenant %s: %w", tenantID(tenant), err)
					return res
				}
				res.sent = due
				res.lastSent = time.Now()
			}
			if res.sent < end {
				wake := p.pace.nextTick(time.Now())
				time.Sleep(time.Until(wake))
				res.lateNS = append(res.lateNS, int64(time.Since(wake)))
			}
		}
		consumed, err := ic.finish()
		if err != nil {
			res.err = fmt.Errorf("tenant %s: %w", tenantID(tenant), err)
			return res
		}
		if consumed != int64(end-start) {
			res.err = fmt.Errorf("tenant %s: server acked %d records, sent %d", tenantID(tenant), consumed, end-start)
			return res
		}
	}
	return res
}
