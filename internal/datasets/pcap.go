package datasets

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strings"

	"behaviot/internal/netparse"
	"behaviot/internal/parallel"
	"behaviot/internal/pcapio"
)

// EncodePackets encodes a packet stream to wire-format pcap records,
// preserving stream order. Synthesized packets whose WireLen exceeds
// their header+payload size are padded so the on-the-wire length (and
// therefore the pipeline's size features) round-trips exactly.
func EncodePackets(pkts []*netparse.Packet) ([]pcapio.Record, error) {
	out := make([]pcapio.Record, len(pkts))
	for i, p := range pkts {
		cp := *p
		want := p.WireLen
		if want > 0 && len(cp.Payload) == 0 {
			// Metadata-only packet: materialize a payload of the right
			// size so the wire length is preserved.
			overhead := 54
			if cp.Proto == netparse.ProtoUDP {
				overhead = 42
			}
			if want > overhead {
				cp.Payload = make([]byte, want-overhead)
			}
		}
		wire, err := netparse.Encode(&cp)
		if err != nil {
			return nil, fmt.Errorf("packet %d: %w", i, err)
		}
		out[i] = pcapio.Record{Time: p.Timestamp, Data: wire}
	}
	return out, nil
}

// WritePcap serializes a packet stream to a pcap file, encoding each
// packet to real Ethernet/IP/transport wire format.
func WritePcap(w io.Writer, pkts []*netparse.Packet) error {
	// Nanosecond resolution preserves synthesized timestamps exactly.
	pw, err := pcapio.NewNanoWriter(w)
	if err != nil {
		return err
	}
	recs, err := EncodePackets(pkts)
	if err != nil {
		return err
	}
	for i, r := range recs {
		if err := pw.WritePacket(r.Time, r.Data); err != nil {
			return fmt.Errorf("packet %d: %w", i, err)
		}
	}
	return pw.Flush()
}

// WritePcapStreams serializes per-device packet streams to one pcap
// file: each stream is encoded to wire format on the worker pool, then
// the encoded records are k-way merged into the writer, cross-stream
// ties broken by wire bytes. The output is byte-identical for any
// worker count; callers must pass each stream time-sorted (as every
// generator emits them).
func WritePcapStreams(w io.Writer, workers int, streams [][]*netparse.Packet) error {
	pw, err := pcapio.NewNanoWriter(w)
	if err != nil {
		return err
	}
	var firstErr parallel.FirstError
	encoded := parallel.Map(workers, streams, func(i int, pkts []*netparse.Packet) []pcapio.Record {
		recs, err := EncodePackets(pkts)
		firstErr.Report(i, err)
		return recs
	})
	if err := firstErr.Err(); err != nil {
		return err
	}
	if err := pw.WriteMerged(encoded...); err != nil {
		return err
	}
	return pw.Flush()
}

// ReadPcap decodes a pcap file back into a packet stream. Frames that do
// not decode are skipped, as a gateway would; a damaged pcap record is an
// error.
func ReadPcap(r io.Reader) ([]*netparse.Packet, error) {
	pr, err := pcapio.NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []*netparse.Packet
	for {
		ts, data, err := pr.ReadPacket()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		p, err := netparse.Decode(data)
		if err != nil {
			continue
		}
		// Detach the payload from the read buffer.
		p.Payload = append([]byte(nil), p.Payload...)
		p.Timestamp = ts
		out = append(out, p)
	}
}

// LoadDevices reads a device manifest: a header row, then `ip,name` rows
// (further columns, such as cmd/gendata's vendor and category, are
// ignored). The first non-blank line is the header wherever it sits;
// blank lines and rows without a comma are skipped.
func LoadDevices(path string) (map[netip.Addr]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[netip.Addr]string{}
	sc := bufio.NewScanner(f)
	header := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if header {
			header = false
			continue
		}
		parts := strings.SplitN(line, ",", 4)
		if len(parts) < 2 {
			continue
		}
		ip, err := netip.ParseAddr(parts[0])
		if err != nil {
			return nil, fmt.Errorf("%s: bad IP %q", path, parts[0])
		}
		out[ip] = parts[1]
	}
	return out, sc.Err()
}
