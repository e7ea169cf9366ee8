// Package pcapio reads and writes libpcap capture files (the classic
// .pcap format, not pcapng) using only the standard library. BehavIoT's
// dataset generators write synthesized gateway traffic to pcap files and
// the analysis pipeline reads them back, mirroring how the paper's
// software consumes testbed captures.
//
// Both the microsecond (magic 0xa1b2c3d4) and nanosecond (0xa1b23c4d)
// variants are supported, in either byte order.
package pcapio

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for the pcap file header.
const (
	magicMicro = 0xa1b2c3d4
	magicNano  = 0xa1b23c4d
)

// LinkType identifies the link layer of the capture.
type LinkType uint32

// LinkTypeEthernet is the only link type the BehavIoT pipeline produces.
const LinkTypeEthernet LinkType = 1

// Errors returned by the reader.
var (
	ErrBadMagic     = errors.New("pcapio: not a pcap file")
	ErrTruncated    = errors.New("pcapio: truncated capture")
	ErrPacketTooBig = errors.New("pcapio: packet exceeds snap length")
)

// MaxSnapLen is the snapshot length written to file headers and the upper
// bound accepted when reading.
const MaxSnapLen = 262144

// Writer writes packets to a pcap stream. Create with NewWriter.
type Writer struct {
	w     *bufio.Writer
	nanos bool
}

// NewWriter writes a pcap file header (microsecond resolution, Ethernet
// link type) to w and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	return newWriter(w, false)
}

// NewNanoWriter is NewWriter with nanosecond timestamp resolution.
func NewNanoWriter(w io.Writer) (*Writer, error) {
	return newWriter(w, true)
}

func newWriter(w io.Writer, nanos bool) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	magic := uint32(magicMicro)
	if nanos {
		magic = magicNano
	}
	binary.LittleEndian.PutUint32(hdr[0:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:8], 4) // version minor
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], MaxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(LinkTypeEthernet))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, nanos: nanos}, nil
}

// WritePacket appends one packet record with the given capture timestamp.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if len(data) > MaxSnapLen {
		return fmt.Errorf("%w: %d bytes", ErrPacketTooBig, len(data))
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	sub := uint32(ts.Nanosecond())
	if !w.nanos {
		sub /= 1000
	}
	binary.LittleEndian.PutUint32(hdr[4:8], sub)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Flush flushes buffered records to the underlying writer. Callers must
// Flush before closing the underlying file.
func (w *Writer) Flush() error { return w.w.Flush() }

// Record is one packet ready for serialization: a capture timestamp and
// the encoded wire bytes. The dataset generators encode per-device
// streams to records in parallel and hand them to WriteMerged.
type Record struct {
	Time time.Time
	Data []byte
}

// CompareRecords orders records by timestamp, breaking ties by wire
// bytes. Records that compare equal serialize identically, so emitting
// them in either order yields the same capture bytes.
func CompareRecords(a, b Record) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	return bytes.Compare(a.Data, b.Data)
}

// WriteMerged k-way merges several record streams, each already sorted
// by timestamp, into the writer: the stream whose head record is
// smallest under CompareRecords is drained first. For a fixed list of
// input streams the output bytes are a deterministic function of the
// stream contents alone — producing the streams on any number of
// workers cannot change the merged capture — and because cross-stream
// ties break on record bytes, permuting the streams changes nothing
// unless two streams share a byte-identical record at the same instant
// (per-device sharding gives every stream distinct addresses, so they
// never do). This is the ordered-merge half of the parallel dataset
// pipeline's determinism argument; the other half is per-shard
// sub-seeding in internal/testbed. A stream whose timestamps go
// backwards yields ErrUnsorted.
func (w *Writer) WriteMerged(streams ...[]Record) error {
	heads := make([]mergeStream, 0, len(streams))
	for _, s := range streams {
		if len(s) > 0 {
			heads = append(heads, mergeStream{records: s})
		}
	}
	h := mergeHeap(heads)
	heap.Init(&h)
	for h.Len() > 0 {
		s := &h[0]
		rec := s.records[s.next]
		if err := w.WritePacket(rec.Time, rec.Data); err != nil {
			return err
		}
		s.next++
		if s.next < len(s.records) {
			if s.records[s.next].Time.Before(rec.Time) {
				return ErrUnsorted
			}
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}

// ErrUnsorted is returned by WriteMerged when an input stream's
// timestamps are not non-decreasing.
var ErrUnsorted = errors.New("pcapio: merge input stream not time-sorted")

// mergeStream is one input of the k-way merge with its read cursor.
type mergeStream struct {
	records []Record
	next    int
}

// mergeHeap is a min-heap of streams keyed by their head record.
type mergeHeap []mergeStream

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return CompareRecords(h[i].records[h[i].next], h[j].records[h[j].next]) < 0
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeStream)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Reader reads packets from a pcap stream. Create with NewReader.
//
// By default the reader is strict: a corrupt or truncated record aborts
// the read with an error. SetTolerant switches it to the
// degrade-gracefully mode the live ingest path uses: implausible record
// headers trigger a byte-wise resync to the next plausible record,
// truncated tails end the stream cleanly, and Skipped reports how many
// times damage was skipped over.
type Reader struct {
	r     *bufio.Reader
	order binary.ByteOrder
	nanos bool

	tolerant     bool
	skipped      int64
	skippedBytes int64
	lastSec      int64
	gotRecord    bool
}

// resyncMaxSkew bounds, in seconds, how far a record timestamp may sit
// from its predecessor and still look plausible during tolerant
// resync. Two days absorbs any real capture gap while rejecting the
// essentially uniform garbage a corrupted length field points at.
const resyncMaxSkew = 2 * 24 * 60 * 60

// NewReader parses the pcap file header from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrBadMagic
		}
		return nil, err
	}
	rd := &Reader{r: br}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	switch {
	case magicLE == magicMicro:
		rd.order = binary.LittleEndian
	case magicLE == magicNano:
		rd.order, rd.nanos = binary.LittleEndian, true
	case magicBE == magicMicro:
		rd.order = binary.BigEndian
	case magicBE == magicNano:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	return rd, nil
}

// SetTolerant switches the reader between strict (default) and
// degrade-gracefully reading. In tolerant mode a record with an
// implausible header is skipped by resyncing to the next plausible
// one, and a truncated trailing record ends the stream with io.EOF
// instead of ErrTruncated; every piece of damage skipped increments
// the Skipped counter.
func (r *Reader) SetTolerant(on bool) { r.tolerant = on }

// Skipped returns how many damaged stretches (implausible record
// headers resynced past, truncated tails discarded) the tolerant
// reader has skipped. Always zero in strict mode.
func (r *Reader) Skipped() int64 { return r.skipped }

// SkippedBytes returns how many bytes tolerant resyncs discarded.
func (r *Reader) SkippedBytes() int64 { return r.skippedBytes }

// ReadPacket returns the next packet record. It returns io.EOF cleanly at
// the end of the stream and, in strict mode, ErrTruncated for a partial
// trailing record; in tolerant mode damage is skipped and counted. The
// returned data is freshly allocated; the zero-alloc ingest path uses
// ReadPacketInto with one reused buffer instead.
func (r *Reader) ReadPacket() (ts time.Time, data []byte, err error) {
	return r.ReadPacketInto(nil)
}

// ReadPacketInto is ReadPacket reading the record bytes into buf (grown
// as needed), so a caller reusing one buffer across calls reads the
// steady-state stream without allocating. The returned data slice
// aliases buf's storage when it fits; ownership of the record bytes
// stays with the caller either way.
func (r *Reader) ReadPacketInto(buf []byte) (ts time.Time, data []byte, err error) {
	resyncing := false
	for {
		hdr, err := r.r.Peek(16)
		if len(hdr) < 16 {
			if len(hdr) == 0 {
				if err == nil || errors.Is(err, io.EOF) {
					return time.Time{}, nil, io.EOF
				}
				return time.Time{}, nil, err
			}
			// Partial trailing header.
			if r.tolerant {
				r.countSkip(len(hdr))
				// Consume the stub so a repeated call cannot re-count it.
				if _, derr := r.r.Discard(len(hdr)); derr != nil && !errors.Is(derr, io.EOF) {
					return time.Time{}, nil, derr
				}
				return time.Time{}, nil, io.EOF
			}
			return time.Time{}, nil, ErrTruncated
		}
		sec := r.order.Uint32(hdr[0:4])
		sub := r.order.Uint32(hdr[4:8])
		capLen := r.order.Uint32(hdr[8:12])
		origLen := r.order.Uint32(hdr[12:16])
		if !r.plausibleHeader(sec, capLen, origLen) {
			if !r.tolerant {
				return time.Time{}, nil, fmt.Errorf("%w: capture length %d", ErrPacketTooBig, capLen)
			}
			// Resync: slide one byte and try again. Consecutive slides
			// count as a single skipped stretch.
			if !resyncing {
				resyncing = true
				r.skipped++
			}
			r.skippedBytes++
			if _, err := r.r.Discard(1); err != nil {
				return time.Time{}, nil, io.EOF
			}
			continue
		}
		if _, err := r.r.Discard(16); err != nil {
			return time.Time{}, nil, err // cannot happen: Peek succeeded
		}
		if uint32(cap(buf)) >= capLen {
			data = buf[:capLen]
		} else {
			data = make([]byte, capLen)
		}
		if n, err := io.ReadFull(r.r, data); err != nil {
			if r.tolerant {
				// Truncated tail: there is no byte stream left to
				// resync into, so end cleanly. The header and partial
				// data were already consumed — only count them.
				r.countSkip(16 + n)
				return time.Time{}, nil, io.EOF
			}
			return time.Time{}, nil, ErrTruncated
		}
		r.lastSec, r.gotRecord = int64(sec), true
		nanos := int64(sub)
		if !r.nanos {
			nanos *= 1000
		}
		return time.Unix(int64(sec), nanos).UTC(), data, nil
	}
}

// plausibleHeader applies the strict bound (capLen within the snap
// length) plus, in tolerant mode, the resync heuristics that separate
// real record headers from corrupted-length garbage: the original
// length must be in range and no smaller than the captured length, the
// sub-second field must fit its resolution, and the timestamp must sit
// within resyncMaxSkew of the previous good record.
func (r *Reader) plausibleHeader(sec, capLen, origLen uint32) bool {
	if capLen > MaxSnapLen {
		return false
	}
	if !r.tolerant {
		return true // strict mode keeps the historical single check
	}
	if origLen > MaxSnapLen || origLen < capLen {
		return false
	}
	if r.gotRecord {
		d := int64(sec) - r.lastSec
		if d < -resyncMaxSkew || d > resyncMaxSkew {
			return false
		}
	}
	return true
}

// countSkip counts n bytes of trailing damage as one skipped stretch.
func (r *Reader) countSkip(n int) {
	r.skipped++
	r.skippedBytes += int64(n)
}
