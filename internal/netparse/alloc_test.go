package netparse

import (
	"net/netip"
	"testing"
	"time"
)

// TestDecodeIntoDoesNotAllocate pins the zero-alloc contract of the
// in-place parse path: decoding a frame into an existing Packet performs
// no heap allocation, for TCP and UDP, IPv4 and IPv6.
func TestDecodeIntoDoesNotAllocate(t *testing.T) {
	cases := []struct {
		name string
		pkt  *Packet
	}{
		{"tcp4", &Packet{
			Timestamp: time.Unix(1, 0),
			SrcIP:     netip.MustParseAddr("192.168.1.2"),
			DstIP:     netip.MustParseAddr("10.0.0.1"),
			SrcPort:   40000, DstPort: 443,
			Proto: ProtoTCP, Flags: FlagPSH | FlagACK,
			Payload: []byte("hello tls"),
		}},
		{"udp6", &Packet{
			Timestamp: time.Unix(1, 0),
			SrcIP:     netip.MustParseAddr("fd00::2"),
			DstIP:     netip.MustParseAddr("2001:db8::1"),
			SrcPort:   5353, DstPort: 5353,
			Proto:   ProtoUDP,
			Payload: []byte("dns-ish"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := Encode(tc.pkt)
			if err != nil {
				t.Fatal(err)
			}
			p := new(Packet)
			avg := testing.AllocsPerRun(200, func() {
				if err := DecodeInto(p, wire); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("DecodeInto allocates %v allocs/op, want 0", avg)
			}
		})
	}
}
