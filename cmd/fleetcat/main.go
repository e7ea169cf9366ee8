// Command fleetcat streams a pcap capture to a multi-tenant behaviotd
// (behaviotd -fleet) as one tenant's ingest source, speaking the
// internal/fleet/listener wire protocol over a unix socket or TCP. It
// is the operator-side counterpart of the listener: point it at a
// gateway capture and a fleet daemon, and the records flow.
//
//	fleetcat -net unix -addr /run/behaviot.sock \
//	    -tenant home-001 -token s3cret -pcap capture.pcap
//
// Transient failures — the daemon not up yet, a connection dropped
// mid-stream, the tenant quarantined until an operator restart — are
// retried with exponential backoff (-retries, -backoff); each retry
// replays the capture from the start, so a stream is only counted done
// when one attempt delivers it whole. Authentication refusals are never
// retried: a wrong token does not heal.
//
// Exit codes, so scripts can branch on the failure class:
//
//	0  success: every record sent was acknowledged consumed
//	1  stream error: unreadable capture, or the server consumed fewer
//	   records than were sent
//	2  usage error
//	3  authentication refused (bad tenant/token)
//	4  transient failures exhausted the retry budget
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"behaviot/internal/backoff"
	"behaviot/internal/fleet/listener"
	"behaviot/internal/pcapio"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program behind flag parsing; taking argv (and using
// its own FlagSet) keeps it callable repeatedly from in-process tests.
func run(args []string) int {
	fs := flag.NewFlagSet("fleetcat", flag.ContinueOnError)
	var (
		network  = fs.String("net", "unix", "transport: unix | tcp")
		addr     = fs.String("addr", "", "daemon ingest address (socket path or host:port)")
		tenant   = fs.String("tenant", "", "tenant ID to ingest as")
		token    = fs.String("token", "", "tenant auth token")
		pcapPath = fs.String("pcap", "", "capture to stream")
		tolerant = fs.Bool("tolerant", false, "resync past corrupt/truncated pcap records instead of aborting")
		retries  = fs.Int("retries", 3, "how many times to retry after a transient dial/send failure")
		base     = fs.Duration("backoff", 500*time.Millisecond, "base retry delay (doubles per attempt, jittered)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" || *tenant == "" || *token == "" || *pcapPath == "" {
		fmt.Fprintln(os.Stderr, "fleetcat: -addr, -tenant, -token, and -pcap are all required; see -h")
		return 2
	}
	if *retries < 0 || *base <= 0 {
		fmt.Fprintln(os.Stderr, "fleetcat: -retries must be >= 0 and -backoff positive; see -h")
		return 2
	}

	// The capture must at least open before the first dial: a typo'd
	// path is a stream error, not something to retry against the daemon.
	if f, err := os.Open(*pcapPath); err != nil {
		fmt.Fprintln(os.Stderr, "fleetcat:", err)
		return 1
	} else {
		f.Close() //lint:ignore errcheck preflight probe only; streamOnce reopens it
	}

	pol := backoff.Policy{Base: *base}
	seed := backoff.Seed(*network + "|" + *addr + "|" + *tenant)
	for attempt := 0; ; attempt++ {
		code, err := streamOnce(*network, *addr, *tenant, *token, *pcapPath, *tolerant)
		if err == nil {
			return code
		}
		var re *listener.RefusedError
		if errors.As(err, &re) && re.AuthFailure() {
			fmt.Fprintln(os.Stderr, "fleetcat:", err)
			return 3
		}
		if code == 1 {
			// Local stream damage (strict-mode pcap corruption): the
			// capture will be just as damaged on the next attempt.
			fmt.Fprintln(os.Stderr, "fleetcat:", err)
			return 1
		}
		if attempt >= *retries {
			fmt.Fprintf(os.Stderr, "fleetcat: %v (retries exhausted after %d attempts)\n", err, attempt+1)
			return 4
		}
		delay := pol.Delay(attempt+1, seed)
		fmt.Fprintf(os.Stderr, "fleetcat: %v; retrying in %s (attempt %d of %d)\n",
			err, delay.Round(time.Millisecond), attempt+1, *retries)
		time.Sleep(delay)
	}
}

// streamOnce is one complete delivery attempt: dial, stream the whole
// capture, half-close, and check the server's consumed count. A nil
// error means the attempt concluded (code 0, or code 1 for a consumed
// mismatch); a non-nil error is a failure the caller classifies — the
// returned code is then 1 for local capture damage (never retried) and
// 4 for transport/server trouble (retried).
func streamOnce(network, addr, tenant, token, pcapPath string, tolerant bool) (int, error) {
	f, err := os.Open(pcapPath)
	if err != nil {
		return 1, err
	}
	defer f.Close()

	r, err := pcapio.NewReader(f)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", pcapPath, err)
	}
	r.SetTolerant(tolerant)

	s, err := listener.Dial(network, addr, tenant, token)
	if err != nil {
		return 4, err
	}
	for {
		ts, data, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.Abort()
			return 1, fmt.Errorf("%s: %w", pcapPath, err)
		}
		if err := s.Send(ts, data); err != nil {
			return 4, fmt.Errorf("send after %d records: %w", s.Sent(), err)
		}
	}
	consumed, err := s.Close()
	if err != nil {
		return 4, err
	}
	if skipped := r.Skipped(); skipped > 0 {
		fmt.Fprintf(os.Stderr, "fleetcat: skipped %d damaged records (%d bytes)\n", skipped, r.SkippedBytes())
	}
	fmt.Printf("fleetcat: sent %d records, server consumed %d\n", s.Sent(), consumed)
	if consumed != s.Sent() {
		return 1, nil
	}
	return 0, nil
}
