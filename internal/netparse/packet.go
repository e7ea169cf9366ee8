// Package netparse implements the wire-format encoding and decoding that
// BehavIoT's gateway capture path depends on: Ethernet, IPv4, IPv6, TCP and
// UDP headers (with real checksums), plus the three application protocols
// the pipeline inspects without decryption — DNS (for IP→domain mapping),
// TLS ClientHello (for the SNI field), and NTP (for periodic-model
// destinations). Everything is stdlib-only.
//
// The design follows the layering conventions of gopacket: a Packet is a
// decoded view with the link/network/transport fields lifted into struct
// fields, and Flow identity is derived from the 5-tuple.
package netparse

import (
	"fmt"
	"net/netip"
	"time"
)

// Protocol identifies the transport protocol of a packet.
type Protocol uint8

// Transport protocols understood by the decoder. The values match the IP
// protocol numbers so encoding can use them directly.
const (
	ProtoTCP Protocol = 6
	ProtoUDP Protocol = 17
)

// String returns the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags holds the subset of TCP flags the simulator and decoder use.
type TCPFlags uint8

// TCP flag bits (low byte of the flags field).
const (
	FlagFIN TCPFlags = 1 << 0
	FlagSYN TCPFlags = 1 << 1
	FlagRST TCPFlags = 1 << 2
	FlagPSH TCPFlags = 1 << 3
	FlagACK TCPFlags = 1 << 4
)

// Packet is a decoded network packet as seen at the home gateway. It is
// the unit the flow assembler consumes.
type Packet struct {
	// Timestamp is the capture time.
	Timestamp time.Time
	// SrcMAC and DstMAC are the Ethernet addresses.
	SrcMAC, DstMAC [6]byte
	// SrcIP and DstIP are the network-layer endpoints.
	SrcIP, DstIP netip.Addr
	// SrcPort and DstPort are the transport-layer ports.
	SrcPort, DstPort uint16
	// Proto is the transport protocol.
	Proto Protocol
	// Flags carries TCP flags (zero for UDP).
	Flags TCPFlags
	// Seq and Ack are TCP sequence numbers (zero for UDP).
	Seq, Ack uint32
	// Payload is the application-layer payload. It may be nil.
	Payload []byte
	// WireLen is the total number of bytes on the wire including all
	// headers. Set by Decode; Encode-produced packets get it from the
	// encoded length.
	WireLen int
}

// FiveTuple identifies a flow.
type FiveTuple struct {
	SrcIP, DstIP     netip.Addr
	SrcPort, DstPort uint16
	Proto            Protocol
}

// Tuple returns the packet's 5-tuple.
func (p *Packet) Tuple() FiveTuple {
	return FiveTuple{
		SrcIP: p.SrcIP, DstIP: p.DstIP,
		SrcPort: p.SrcPort, DstPort: p.DstPort,
		Proto: p.Proto,
	}
}

// Reverse returns the 5-tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: t.DstIP, DstIP: t.SrcIP,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
		Proto: t.Proto,
	}
}

// String formats the tuple as "src:port->dst:port/proto".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d->%s:%d/%s", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort, t.Proto)
}
