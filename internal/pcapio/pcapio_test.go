package pcapio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2021, 8, 1, 0, 0, 0, 0, time.UTC)
	packets := [][]byte{
		[]byte("first packet"),
		[]byte("second"),
		make([]byte, 1500),
	}
	for i, p := range packets {
		ts := base.Add(time.Duration(i) * time.Second).Add(time.Duration(i*250) * time.Microsecond)
		if err := w.WritePacket(ts, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	hdr := buf.Bytes()[:24]
	if lt := LinkType(binary.LittleEndian.Uint32(hdr[20:24])); lt != LinkTypeEthernet {
		t.Errorf("link type = %d", lt)
	}
	if sl := binary.LittleEndian.Uint32(hdr[16:20]); sl != MaxSnapLen {
		t.Errorf("snap len = %d", sl)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range packets {
		ts, data, err := r.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("packet %d data mismatch", i)
		}
		wantTS := base.Add(time.Duration(i) * time.Second).Add(time.Duration(i*250) * time.Microsecond)
		if !ts.Equal(wantTS) {
			t.Errorf("packet %d ts = %v, want %v", i, ts, wantTS)
		}
	}
	if _, _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("expected io.EOF, got %v", err)
	}
}

func TestNanoWriterPreservesNanos(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewNanoWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Unix(1700000000, 123456789).UTC()
	if err := w.WritePacket(ts, []byte{1}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ts) {
		t.Errorf("nano ts = %v, want %v", got, ts)
	}
}

func TestMicroWriterTruncatesToMicros(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	ts := time.Unix(1700000000, 123456789).UTC()
	w.WritePacket(ts, []byte{1})
	w.Flush()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	got, _, _ := r.ReadPacket()
	want := time.Unix(1700000000, 123456000).UTC()
	if !got.Equal(want) {
		t.Errorf("micro ts = %v, want %v", got, want)
	}
}

func TestBigEndianRead(t *testing.T) {
	// Hand-build a big-endian microsecond pcap with one packet.
	var buf bytes.Buffer
	hdr := make([]byte, 24)
	binary.BigEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.BigEndian.PutUint16(hdr[4:6], 2)
	binary.BigEndian.PutUint16(hdr[6:8], 4)
	binary.BigEndian.PutUint32(hdr[16:20], 65535)
	binary.BigEndian.PutUint32(hdr[20:24], 1)
	buf.Write(hdr)
	rec := make([]byte, 16)
	binary.BigEndian.PutUint32(rec[0:4], 1000)
	binary.BigEndian.PutUint32(rec[4:8], 5)
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	buf.Write(rec)
	buf.Write([]byte{0xAA, 0xBB, 0xCC})

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ts, data, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Equal(time.Unix(1000, 5000).UTC()) {
		t.Errorf("ts = %v", ts)
	}
	if !bytes.Equal(data, []byte{0xAA, 0xBB, 0xCC}) {
		t.Errorf("data = %x", data)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pcap file at all...."))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("empty: err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WritePacket(time.Unix(0, 0), []byte("hello"))
	w.Flush()
	full := buf.Bytes()
	// Cut mid-record (after file header + partial record header).
	r, err := NewReader(bytes.NewReader(full[:24+10]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v, want ErrTruncated", err)
	}
	// Cut mid-payload.
	r2, _ := NewReader(bytes.NewReader(full[:24+16+2]))
	if _, _, err := r2.ReadPacket(); !errors.Is(err, ErrTruncated) {
		t.Errorf("payload cut: err = %v, want ErrTruncated", err)
	}
}

func TestOversizePacketRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.WritePacket(time.Unix(0, 0), make([]byte, MaxSnapLen+1)); !errors.Is(err, ErrPacketTooBig) {
		t.Errorf("write err = %v, want ErrPacketTooBig", err)
	}
}

func TestManyPackets(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		data := []byte{byte(i), byte(i >> 8)}
		if err := w.WritePacket(time.Unix(int64(i), 0), data); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	count := 0
	for {
		_, data, err := r.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != byte(count) || data[1] != byte(count>>8) {
			t.Fatalf("packet %d contents wrong", count)
		}
		count++
	}
	if count != n {
		t.Errorf("read %d packets, want %d", count, n)
	}
}

func BenchmarkWritePacket(b *testing.B) {
	w, _ := NewWriter(io.Discard)
	data := make([]byte, 512)
	ts := time.Unix(0, 0)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WritePacket(ts, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPacket(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	data := make([]byte, 512)
	for i := 0; i < 1000; i++ {
		w.WritePacket(time.Unix(0, 0), data)
	}
	w.Flush()
	raw := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	r, _ := NewReader(bytes.NewReader(raw))
	for i := 0; i < b.N; i++ {
		if _, _, err := r.ReadPacket(); err == io.EOF {
			r, _ = NewReader(bytes.NewReader(raw))
		}
	}
}
