package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"behaviot/internal/pcapio"
)

// TestActivityDatasetAcrossWorkers runs the smallest dataset the flags
// allow (-dataset activity -reps 1) at two worker counts: the three
// output files must be byte-identical, and the capture must read back
// through pcapio with exactly the packet count gendata printed and no
// skipped records.
func TestActivityDatasetAcrossWorkers(t *testing.T) {
	files := []string{"activity.pcap", "activity_labels.csv", "devices.csv"}
	var first map[string][]byte
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		var stdout, stderr bytes.Buffer
		args := []string{"-dataset", "activity", "-reps", "1", "-out", dir, "-workers", fmt.Sprint(workers)}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("workers=%d: exit = %d\nstderr:\n%s", workers, code, stderr.String())
		}
		got := map[string][]byte{}
		for _, name := range files {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got[name] = data
		}
		if first == nil {
			first = got
			checkCapture(t, got["activity.pcap"], stderr.String())
			continue
		}
		for _, name := range files {
			if !bytes.Equal(got[name], first[name]) {
				t.Errorf("%s differs between -workers 1 and -workers %d", name, workers)
			}
		}
	}
}

// checkCapture reads pcap back strictly and compares its record count
// with the "wrote <path>: N packets, M bytes" line in gendata's log.
func checkCapture(t *testing.T, pcap []byte, log string) {
	t.Helper()
	var printed, size int
	for _, line := range strings.Split(log, "\n") {
		if _, rest, ok := strings.Cut(line, "activity.pcap: "); ok {
			if _, err := fmt.Sscanf(rest, "%d packets, %d bytes", &printed, &size); err != nil {
				t.Fatalf("unparseable log line %q: %v", line, err)
			}
		}
	}
	if printed == 0 || size != len(pcap) {
		t.Fatalf("log reports %d packets, %d bytes; file is %d bytes\nlog:\n%s", printed, size, len(pcap), log)
	}
	r, err := pcapio.NewReader(bytes.NewReader(pcap))
	if err != nil {
		t.Fatal(err)
	}
	read := 0
	for {
		if _, _, err := r.ReadPacket(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatalf("record %d: %v", read, err)
		}
		read++
	}
	if read != printed || r.Skipped() != 0 {
		t.Errorf("read back %d records (%d skipped), gendata printed %d", read, r.Skipped(), printed)
	}
}
