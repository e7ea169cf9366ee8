package netparse

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func mkPacket(proto Protocol, payload []byte) *Packet {
	return &Packet{
		Timestamp: time.Unix(1700000000, 0),
		SrcMAC:    [6]byte{0x02, 0, 0, 0, 0, 1},
		DstMAC:    [6]byte{0x02, 0, 0, 0, 0, 2},
		SrcIP:     netip.MustParseAddr("192.168.1.10"),
		DstIP:     netip.MustParseAddr("52.94.233.129"),
		SrcPort:   41000,
		DstPort:   443,
		Proto:     proto,
		Flags:     FlagPSH | FlagACK,
		Seq:       1000,
		Ack:       2000,
		Payload:   payload,
	}
}

func TestEncodeDecodeTCPRoundTrip(t *testing.T) {
	p := mkPacket(ProtoTCP, []byte("hello iot"))
	wire, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.WireLen != len(wire) {
		t.Errorf("WireLen = %d, want %d", p.WireLen, len(wire))
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != p.SrcIP || got.DstIP != p.DstIP {
		t.Errorf("IPs: got %v->%v", got.SrcIP, got.DstIP)
	}
	if got.SrcPort != p.SrcPort || got.DstPort != p.DstPort {
		t.Errorf("ports: got %d->%d", got.SrcPort, got.DstPort)
	}
	if got.Proto != ProtoTCP || got.Flags != p.Flags {
		t.Errorf("proto/flags: %v %v", got.Proto, got.Flags)
	}
	if got.Seq != 1000 || got.Ack != 2000 {
		t.Errorf("seq/ack: %d/%d", got.Seq, got.Ack)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("payload: %q", got.Payload)
	}
	if got.SrcMAC != p.SrcMAC || got.DstMAC != p.DstMAC {
		t.Error("MACs mismatch")
	}
}

func TestEncodeDecodeUDPRoundTrip(t *testing.T) {
	p := mkPacket(ProtoUDP, []byte{1, 2, 3, 4, 5})
	wire, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Proto != ProtoUDP || !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("UDP decode: proto=%v payload=%v", got.Proto, got.Payload)
	}
}

func TestEncodeDecodeIPv6(t *testing.T) {
	p := mkPacket(ProtoUDP, []byte("v6 payload"))
	p.SrcIP = netip.MustParseAddr("fd00::10")
	p.DstIP = netip.MustParseAddr("2607:f8b0::1")
	wire, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcIP != p.SrcIP || got.DstIP != p.DstIP {
		t.Errorf("v6 IPs: %v->%v", got.SrcIP, got.DstIP)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Errorf("v6 payload: %q", got.Payload)
	}
}

func TestEncodeMixedFamiliesRejected(t *testing.T) {
	p := mkPacket(ProtoTCP, nil)
	p.DstIP = netip.MustParseAddr("fd00::1")
	if _, err := Encode(p); err == nil {
		t.Error("mixed families should fail")
	}
}

func TestEncodeUnsupportedProto(t *testing.T) {
	p := mkPacket(Protocol(99), nil)
	if _, err := Encode(p); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := mkPacket(ProtoTCP, []byte("data"))
	wire, _ := Encode(p)
	for _, cut := range []int{0, 5, 13, 20, 33, 40, 50} {
		if cut >= len(wire) {
			continue
		}
		if _, err := Decode(wire[:cut]); err == nil {
			t.Errorf("cut=%d: expected error", cut)
		}
	}
}

func TestDecodeCorruptChecksum(t *testing.T) {
	p := mkPacket(ProtoTCP, []byte("data"))
	wire, _ := Encode(p)
	wire[ethHeaderLen+8]++ // flip a TTL bit → IPv4 checksum mismatch
	if _, err := Decode(wire); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("err = %v, want ErrBadChecksum", err)
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	wire := make([]byte, 64)
	wire[12], wire[13] = 0x08, 0x06 // ARP
	if _, err := Decode(wire); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

func TestTransportChecksumValid(t *testing.T) {
	for _, proto := range []Protocol{ProtoTCP, ProtoUDP} {
		p := mkPacket(proto, []byte("checksum me"))
		wire, _ := Encode(p)
		ihl := int(wire[ethHeaderLen]&0x0F) * 4
		seg := wire[ethHeaderLen+ihl:]
		// A segment that still carries its checksum field sums to zero.
		if transportChecksum(p.SrcIP, p.DstIP, byte(proto), seg) != 0 {
			t.Errorf("%v checksum invalid", proto)
		}
		// Corrupt one payload byte: checksum must fail.
		seg[len(seg)-1] ^= 0xFF
		if transportChecksum(p.SrcIP, p.DstIP, byte(proto), seg) == 0 {
			t.Errorf("%v checksum passed on corrupted payload", proto)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sport, dport uint16, tcp bool) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		proto := ProtoUDP
		if tcp {
			proto = ProtoTCP
		}
		p := mkPacket(proto, payload)
		p.SrcPort, p.DstPort = sport, dport
		wire, err := Encode(p)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return got.SrcPort == sport && got.DstPort == dport &&
			bytes.Equal(got.Payload, payload) && got.Proto == proto
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFiveTupleReverseInvolutive(t *testing.T) {
	fwd := mkPacket(ProtoTCP, nil).Tuple()
	rev := fwd.Reverse()
	if rev == fwd || rev.SrcIP != fwd.DstIP || rev.SrcPort != fwd.DstPort {
		t.Errorf("Reverse(%v) = %v", fwd, rev)
	}
	if rev.Reverse() != fwd {
		t.Error("Reverse not involutive")
	}
}

func TestFiveTupleString(t *testing.T) {
	p := mkPacket(ProtoUDP, nil)
	s := p.Tuple().String()
	if s != "192.168.1.10:41000->52.94.233.129:443/UDP" {
		t.Errorf("String = %q", s)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTCP.String() != "TCP" || ProtoUDP.String() != "UDP" {
		t.Error("protocol names wrong")
	}
	if Protocol(9).String() != "proto(9)" {
		t.Errorf("unknown proto = %q", Protocol(9).String())
	}
}

func BenchmarkEncodeTCP(b *testing.B) {
	p := mkPacket(ProtoTCP, make([]byte, 512))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeTCP(b *testing.B) {
	p := mkPacket(ProtoTCP, make([]byte, 512))
	wire, _ := Encode(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
