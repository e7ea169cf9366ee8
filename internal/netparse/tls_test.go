package netparse

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"testing"
	"time"
)

func TestClientHelloSNIRoundTrip(t *testing.T) {
	var random [32]byte
	for i := range random {
		random[i] = byte(i)
	}
	for _, name := range []string{
		"devs.tplinkcloud.com",
		"a2z.com",
		"very-long-subdomain.iot.us-east-1.amazonaws.com",
	} {
		rec := EncodeClientHello(name, random)
		got, err := ExtractSNI(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != name {
			t.Errorf("SNI = %q, want %q", got, name)
		}
	}
}

func TestExtractSNIRejectsNonTLS(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("GET / HTTP/1.1\r\n"),
		{22, 3, 3},          // truncated record header
		{23, 3, 3, 0, 5, 1}, // application data record
	}
	for i, c := range cases {
		if _, err := ExtractSNI(c); !errors.Is(err, ErrNotClientHello) {
			t.Errorf("case %d: err = %v, want ErrNotClientHello", i, err)
		}
	}
}

func TestExtractSNITruncatedHello(t *testing.T) {
	var random [32]byte
	rec := EncodeClientHello("example.com", random)
	for cut := 1; cut < len(rec); cut += 7 {
		if _, err := ExtractSNI(rec[:cut]); err == nil {
			// A prefix that still contains the full record may legitimately
			// parse; only complain when the record was actually cut.
			if cut < len(rec) {
				t.Errorf("cut=%d parsed successfully", cut)
			}
		}
	}
}

func TestExtractSNITrailingData(t *testing.T) {
	var random [32]byte
	rec := EncodeClientHello("hub.example.net", random)
	rec = append(rec, []byte{23, 3, 3, 0, 2, 0xAA, 0xBB}...) // extra record
	got, err := ExtractSNI(rec)
	if err != nil || got != "hub.example.net" {
		t.Errorf("with trailing data: %q, %v", got, err)
	}
}

func TestNTPRoundTrip(t *testing.T) {
	// The testbed carries NTP in UDP datagrams that the daemon decodes
	// with Decode; the payload must come back with every RFC 5905 field
	// in place.
	tx := time.Date(2021, 9, 15, 12, 30, 45, 500000000, time.UTC)
	wire, err := Encode(&Packet{
		Timestamp: tx,
		SrcIP:     netip.MustParseAddr("192.168.1.10"),
		DstIP:     netip.MustParseAddr("129.6.15.28"),
		SrcPort:   41000,
		DstPort:   NTPPort,
		Proto:     ProtoUDP,
		Payload:   EncodeNTP(&NTPPacket{Mode: NTPModeClient, Transmit: tx}),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	ntp := p.Payload
	if len(ntp) != 48 {
		t.Fatalf("NTP length = %d, want 48", len(ntp))
	}
	if vn, mode := ntp[0]>>3&0x7, ntp[0]&0x7; vn != 4 || mode != NTPModeClient {
		t.Errorf("version/mode = %d/%d, want 4/%d", vn, mode, NTPModeClient)
	}
	secs := int64(binary.BigEndian.Uint32(ntp[40:44])) - ntpEpochOffset
	frac := float64(binary.BigEndian.Uint32(ntp[44:48])) / (1 << 32)
	got := time.Unix(secs, int64(frac*1e9)).UTC()
	if d := got.Sub(tx); d > time.Millisecond || d < -time.Millisecond {
		t.Errorf("transmit time drift = %v", d)
	}
}

func TestNTPServerMode(t *testing.T) {
	ntp := EncodeNTP(&NTPPacket{Mode: NTPModeServer, Stratum: 2, Transmit: time.Unix(1700000000, 0)})
	if mode, stratum := ntp[0]&0x7, ntp[1]; mode != NTPModeServer || stratum != 2 {
		t.Errorf("mode/stratum = %d/%d", mode, stratum)
	}
}

func BenchmarkExtractSNI(b *testing.B) {
	var random [32]byte
	rec := EncodeClientHello("device-metrics-us.amazon.com", random)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractSNI(rec); err != nil {
			b.Fatal(err)
		}
	}
}
