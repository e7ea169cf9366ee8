package pcapio

import (
	"bytes"
	"testing"
	"time"
)

// TestReadPacketIntoDoesNotAllocate pins the zero-alloc contract of
// the reused-buffer record read: with a large-enough scratch buffer,
// ReadPacketInto performs no heap allocation per record.
func TestReadPacketIntoDoesNotAllocate(t *testing.T) {
	const records = 400
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 120)
	ts := time.Unix(1700000000, 0)
	for i := 0; i < records; i++ {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Millisecond), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, 2048)
	avg := testing.AllocsPerRun(records-10, func() {
		_, got, err := r.ReadPacketInto(scratch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(data) {
			t.Fatalf("record length %d, want %d", len(got), len(data))
		}
	})
	if avg != 0 {
		t.Errorf("ReadPacketInto allocates %v allocs/op, want 0", avg)
	}
}
