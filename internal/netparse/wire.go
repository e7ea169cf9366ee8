package netparse

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// EtherType values used by the encoder/decoder.
const (
	etherTypeIPv4 = 0x0800
	etherTypeIPv6 = 0x86DD
)

const (
	ethHeaderLen  = 14
	ipv4HeaderLen = 20
	ipv6HeaderLen = 40
	tcpHeaderLen  = 20
	udpHeaderLen  = 8
)

// Decode errors.
var (
	ErrTruncated   = errors.New("netparse: truncated packet")
	ErrUnsupported = errors.New("netparse: unsupported protocol")
	ErrBadChecksum = errors.New("netparse: bad IPv4 header checksum")
)

// Encode serializes the packet to Ethernet/IP/transport wire format,
// computing the IPv4 header checksum and the TCP/UDP checksum over the
// pseudo-header. It also sets p.WireLen.
func Encode(p *Packet) ([]byte, error) {
	if p.Proto != ProtoTCP && p.Proto != ProtoUDP {
		return nil, fmt.Errorf("%w: %v", ErrUnsupported, p.Proto)
	}
	v4 := p.SrcIP.Is4()
	if v4 != p.DstIP.Is4() {
		return nil, fmt.Errorf("netparse: mixed address families %v -> %v", p.SrcIP, p.DstIP)
	}
	transLen := udpHeaderLen
	if p.Proto == ProtoTCP {
		transLen = tcpHeaderLen
	}
	ipLen := ipv4HeaderLen
	ethType := uint16(etherTypeIPv4)
	if !v4 {
		ipLen = ipv6HeaderLen
		ethType = etherTypeIPv6
	}
	total := ethHeaderLen + ipLen + transLen + len(p.Payload)
	buf := make([]byte, total)

	// Ethernet.
	copy(buf[0:6], p.DstMAC[:])
	copy(buf[6:12], p.SrcMAC[:])
	binary.BigEndian.PutUint16(buf[12:14], ethType)

	// IP.
	ip := buf[ethHeaderLen:]
	if v4 {
		ip[0] = 0x45 // version 4, IHL 5
		binary.BigEndian.PutUint16(ip[2:4], uint16(ipLen+transLen+len(p.Payload)))
		ip[8] = 64 // TTL
		ip[9] = byte(p.Proto)
		src, dst := p.SrcIP.As4(), p.DstIP.As4()
		copy(ip[12:16], src[:])
		copy(ip[16:20], dst[:])
		binary.BigEndian.PutUint16(ip[10:12], 0)
		binary.BigEndian.PutUint16(ip[10:12], ipChecksum(ip[:ipv4HeaderLen]))
	} else {
		ip[0] = 0x60 // version 6
		binary.BigEndian.PutUint16(ip[4:6], uint16(transLen+len(p.Payload)))
		ip[6] = byte(p.Proto) // next header
		ip[7] = 64            // hop limit
		src, dst := p.SrcIP.As16(), p.DstIP.As16()
		copy(ip[8:24], src[:])
		copy(ip[24:40], dst[:])
	}

	// Transport.
	trans := ip[ipLen:]
	binary.BigEndian.PutUint16(trans[0:2], p.SrcPort)
	binary.BigEndian.PutUint16(trans[2:4], p.DstPort)
	if p.Proto == ProtoTCP {
		binary.BigEndian.PutUint32(trans[4:8], p.Seq)
		binary.BigEndian.PutUint32(trans[8:12], p.Ack)
		trans[12] = 5 << 4 // data offset: 5 words
		trans[13] = byte(p.Flags)
		binary.BigEndian.PutUint16(trans[14:16], 65535) // window
		copy(trans[tcpHeaderLen:], p.Payload)
		csum := transportChecksum(p.SrcIP, p.DstIP, byte(ProtoTCP), trans[:tcpHeaderLen+len(p.Payload)])
		binary.BigEndian.PutUint16(trans[16:18], csum)
	} else {
		binary.BigEndian.PutUint16(trans[4:6], uint16(udpHeaderLen+len(p.Payload)))
		copy(trans[udpHeaderLen:], p.Payload)
		csum := transportChecksum(p.SrcIP, p.DstIP, byte(ProtoUDP), trans[:udpHeaderLen+len(p.Payload)])
		if csum == 0 {
			csum = 0xFFFF // RFC 768: zero checksum means "not computed"
		}
		binary.BigEndian.PutUint16(trans[6:8], csum)
	}
	p.WireLen = total
	return buf, nil
}

// Decode parses an Ethernet frame into a Packet. The returned packet's
// Payload aliases data; callers that retain packets past the lifetime of
// the buffer must copy it.
//
// Every failure is a *ParseError carrying one of the error classes
// above, so tolerant consumers can count instead of abort;
// errors.Is(err, ErrTruncated) and friends keep working through it.
func Decode(data []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into a caller-provided (typically reused) Packet,
// so the steady-state parse path performs no allocation. The previous
// contents of p are overwritten on success; on error p is left in an
// unspecified state and must not be fed downstream. p.Payload aliases
// data, which the caller only lends: it is valid until data is reused.
func DecodeInto(p *Packet, data []byte) error {
	if len(data) < ethHeaderLen {
		return parseErr(ClassTruncated, fmt.Errorf("%w: ethernet header", ErrTruncated))
	}
	*p = Packet{}
	p.WireLen = len(data)
	copy(p.DstMAC[:], data[0:6])
	copy(p.SrcMAC[:], data[6:12])
	ethType := binary.BigEndian.Uint16(data[12:14])
	ip := data[ethHeaderLen:]

	var transport []byte
	var proto byte
	switch ethType {
	case etherTypeIPv4:
		if len(ip) < ipv4HeaderLen {
			return parseErr(ClassTruncated, fmt.Errorf("%w: ipv4 header", ErrTruncated))
		}
		ihl := int(ip[0]&0x0F) * 4
		if ihl < ipv4HeaderLen || len(ip) < ihl {
			return parseErr(ClassTruncated, fmt.Errorf("%w: ipv4 options", ErrTruncated))
		}
		if ipChecksum(ip[:ihl]) != 0 {
			return parseErr(ClassChecksum, ErrBadChecksum)
		}
		totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
		if totalLen > len(ip) {
			return parseErr(ClassTruncated, fmt.Errorf("%w: ipv4 total length %d > %d", ErrTruncated, totalLen, len(ip)))
		}
		if totalLen < ihl {
			// A total length shorter than the header itself is not a
			// truncation artifact but an inconsistent header (and an
			// out-of-bounds slice if trusted — the fuzzer's find).
			return parseErr(ClassMalformed, fmt.Errorf("netparse: ipv4 total length %d < header length %d", totalLen, ihl))
		}
		proto = ip[9]
		p.SrcIP = netip.AddrFrom4([4]byte(ip[12:16]))
		p.DstIP = netip.AddrFrom4([4]byte(ip[16:20]))
		transport = ip[ihl:totalLen]
	case etherTypeIPv6:
		if len(ip) < ipv6HeaderLen {
			return parseErr(ClassTruncated, fmt.Errorf("%w: ipv6 header", ErrTruncated))
		}
		payloadLen := int(binary.BigEndian.Uint16(ip[4:6]))
		proto = ip[6]
		p.SrcIP = netip.AddrFrom16([16]byte(ip[8:24]))
		p.DstIP = netip.AddrFrom16([16]byte(ip[24:40]))
		if ipv6HeaderLen+payloadLen > len(ip) {
			return parseErr(ClassTruncated, fmt.Errorf("%w: ipv6 payload", ErrTruncated))
		}
		transport = ip[ipv6HeaderLen : ipv6HeaderLen+payloadLen]
	default:
		return parseErr(ClassUnsupported, fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, ethType))
	}

	switch Protocol(proto) {
	case ProtoTCP:
		if len(transport) < tcpHeaderLen {
			return parseErr(ClassTruncated, fmt.Errorf("%w: tcp header", ErrTruncated))
		}
		p.Proto = ProtoTCP
		p.SrcPort = binary.BigEndian.Uint16(transport[0:2])
		p.DstPort = binary.BigEndian.Uint16(transport[2:4])
		p.Seq = binary.BigEndian.Uint32(transport[4:8])
		p.Ack = binary.BigEndian.Uint32(transport[8:12])
		dataOff := int(transport[12]>>4) * 4
		if dataOff < tcpHeaderLen || dataOff > len(transport) {
			return parseErr(ClassTruncated, fmt.Errorf("%w: tcp data offset", ErrTruncated))
		}
		p.Flags = TCPFlags(transport[13])
		p.Payload = transport[dataOff:]
	case ProtoUDP:
		if len(transport) < udpHeaderLen {
			return parseErr(ClassTruncated, fmt.Errorf("%w: udp header", ErrTruncated))
		}
		p.Proto = ProtoUDP
		p.SrcPort = binary.BigEndian.Uint16(transport[0:2])
		p.DstPort = binary.BigEndian.Uint16(transport[2:4])
		udpLen := int(binary.BigEndian.Uint16(transport[4:6]))
		if udpLen < udpHeaderLen || udpLen > len(transport) {
			return parseErr(ClassTruncated, fmt.Errorf("%w: udp length", ErrTruncated))
		}
		p.Payload = transport[udpHeaderLen:udpLen]
	default:
		return parseErr(ClassUnsupported, fmt.Errorf("%w: ip protocol %d", ErrUnsupported, proto))
	}
	return nil
}

// ipChecksum computes the Internet checksum over b. Computing it over a
// header whose checksum field is already filled returns 0 when valid.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}

// transportChecksum computes the TCP/UDP checksum including the IPv4/IPv6
// pseudo-header. segment must have its checksum field zeroed.
func transportChecksum(src, dst netip.Addr, proto byte, segment []byte) uint16 {
	var pseudo []byte
	if src.Is4() {
		pseudo = make([]byte, 12)
		s, d := src.As4(), dst.As4()
		copy(pseudo[0:4], s[:])
		copy(pseudo[4:8], d[:])
		pseudo[9] = proto
		binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	} else {
		pseudo = make([]byte, 40)
		s, d := src.As16(), dst.As16()
		copy(pseudo[0:16], s[:])
		copy(pseudo[16:32], d[:])
		binary.BigEndian.PutUint32(pseudo[32:36], uint32(len(segment)))
		pseudo[39] = proto
	}
	var sum uint32
	add := func(b []byte) {
		for i := 0; i+1 < len(b); i += 2 {
			sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
		}
		if len(b)%2 == 1 {
			sum += uint32(b[len(b)-1]) << 8
		}
	}
	add(pseudo)
	add(segment)
	for sum > 0xFFFF {
		sum = (sum >> 16) + (sum & 0xFFFF)
	}
	return ^uint16(sum)
}
