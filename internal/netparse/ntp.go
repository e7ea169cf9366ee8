package netparse

import (
	"encoding/binary"
	"time"
)

// NTP packet constants (RFC 5905).
const (
	// NTPPort is the well-known NTP UDP port.
	NTPPort = 123
	// ntpPacketLen is the size of a basic NTP packet.
	ntpPacketLen = 48
	// ntpEpochOffset is the number of seconds between the NTP epoch
	// (1900-01-01) and the Unix epoch (1970-01-01).
	ntpEpochOffset = 2208988800
)

// NTP modes.
const (
	NTPModeClient = 3
	NTPModeServer = 4
)

// NTPPacket is a minimal NTP v4 packet: enough to synthesize the periodic
// NTP sync traffic that IoT devices emit (paper §6.1 observes 17 distinct
// NTP servers across the testbed).
type NTPPacket struct {
	Mode     byte
	Stratum  byte
	Transmit time.Time
}

// EncodeNTP serializes the packet.
func EncodeNTP(p *NTPPacket) []byte {
	buf := make([]byte, ntpPacketLen)
	buf[0] = 4<<3 | (p.Mode & 0x7) // LI=0, VN=4, Mode
	buf[1] = p.Stratum
	secs := uint32(p.Transmit.Unix() + ntpEpochOffset)
	frac := uint32(float64(p.Transmit.Nanosecond()) / 1e9 * (1 << 32))
	binary.BigEndian.PutUint32(buf[40:44], secs)
	binary.BigEndian.PutUint32(buf[44:48], frac)
	return buf
}
