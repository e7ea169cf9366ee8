package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeThrough(t *testing.T, fsys FS, path string, data []byte) (int, error) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("OpenFile(%s): %v", path, err)
	}
	n, werr := f.Write(data)
	if cerr := f.Close(); cerr != nil && werr == nil {
		werr = cerr
	}
	return n, werr
}

func TestZeroConfigIsIdentity(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{})
	path := filepath.Join(dir, "a.bin")
	if n, err := writeThrough(t, in, path, []byte("hello")); err != nil || n != 5 {
		t.Fatalf("write through zero-config injector: n=%d err=%v", n, err)
	}
	got, err := in.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if err := in.Rename(path, filepath.Join(dir, "b.bin")); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if faults := in.Stats().Faults; faults != [numOpKinds]int64{} {
		t.Fatalf("zero config injected faults %v", faults)
	}
}

func TestFailNthWriteWindow(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{FailWriteNth: 2, FailCount: 2})
	path := filepath.Join(dir, "f.bin")
	f, err := in.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("write 1 should pass: %v", err)
	}
	for i := 2; i <= 3; i++ {
		n, err := f.Write([]byte("xx"))
		if err == nil || n != 0 {
			t.Fatalf("write %d should fail with nothing persisted, got n=%d err=%v", i, n, err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("write %d error does not unwrap to ErrInjected: %v", i, err)
		}
		if !errors.Is(err, EIO) {
			t.Fatalf("write %d error does not unwrap to EIO: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("four")); err != nil {
		t.Fatalf("write 4 should pass after the window: %v", err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "onefour" {
		t.Fatalf("file contents = %q, want the faulted writes absent", data)
	}
}

func TestTornWriteKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{FailWriteNth: 1, TearBytes: 3})
	path := filepath.Join(dir, "torn.bin")
	n, err := writeThrough(t, in, path, []byte("abcdef"))
	if err == nil {
		t.Fatal("torn write reported no error")
	}
	if n != 3 {
		t.Fatalf("torn write persisted %d bytes, want 3", n)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "abc" {
		t.Fatalf("on-disk prefix = %q, want %q", data, "abc")
	}
}

func TestDiskFullAfterBytes(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{ENOSPCAfter: 10})
	p1 := filepath.Join(dir, "p1")
	if n, err := writeThrough(t, in, p1, []byte("12345678")); err != nil || n != 8 {
		t.Fatalf("first 8 bytes should fit: n=%d err=%v", n, err)
	}
	// Crossing write persists only what fits and reports ENOSPC.
	p2 := filepath.Join(dir, "p2")
	n, err := writeThrough(t, in, p2, []byte("abcdef"))
	if !errors.Is(err, ENOSPC) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("crossing write error = %v, want ENOSPC", err)
	}
	if n != 2 {
		t.Fatalf("crossing write persisted %d bytes, want the 2 that fit", n)
	}
	// Once full, syncs and renames on the store fail too.
	f, err := in.OpenFile(filepath.Join(dir, "p3"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, ENOSPC) {
		t.Fatalf("sync on full disk = %v, want ENOSPC", err)
	}
	if err := in.Rename(p1, filepath.Join(dir, "p1b")); !errors.Is(err, ENOSPC) {
		t.Fatalf("rename on full disk = %v, want ENOSPC", err)
	}
}

func TestPathScoping(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{FailWriteNth: 1, FailCount: 1 << 30, PathContains: "tenants/home-042/"})
	victim := filepath.Join(dir, "tenants", "home-042")
	neighbor := filepath.Join(dir, "tenants", "home-007")
	for _, d := range []string{victim, neighbor} {
		if err := in.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := writeThrough(t, in, filepath.Join(victim, "m.bin"), []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("victim write = %v, want injected fault", err)
	}
	if _, err := writeThrough(t, in, filepath.Join(neighbor, "m.bin"), []byte("x")); err != nil {
		t.Fatalf("neighbor write faulted: %v", err)
	}
}

func TestFailSyncAndRenameNth(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{FailSyncNth: 1, FailRenameNth: 1})
	f, err := in.OpenFile(filepath.Join(dir, "s.bin"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync 1 = %v, want injected", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync 2 should pass: %v", err)
	}
	f.Close()
	src, dst := filepath.Join(dir, "s.bin"), filepath.Join(dir, "d.bin")
	if err := in.Rename(src, dst); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename 1 = %v, want injected", err)
	}
	if err := in.Rename(src, dst); err != nil {
		t.Fatalf("rename 2 should pass: %v", err)
	}
}

func TestSetRulesClearsFault(t *testing.T) {
	dir := t.TempDir()
	in := Wrap(OS{}, Config{FailWriteNth: 1, FailCount: 1 << 30})
	path := filepath.Join(dir, "c.bin")
	if _, err := writeThrough(t, in, path, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted write = %v, want injected", err)
	}
	in.SetRules() // the disk came back
	if _, err := writeThrough(t, in, path, []byte("x")); err != nil {
		t.Fatalf("write after clearing rules: %v", err)
	}
	st := in.Stats()
	if st.Faults[OpWrite] != 1 {
		t.Fatalf("fault count = %d, want 1", st.Faults[OpWrite])
	}
}

func TestDeterministicFaultSequence(t *testing.T) {
	run := func() []int64 {
		dir := t.TempDir()
		in := Wrap(OS{}, Config{FailWriteNth: 3, FailCount: 2, ENOSPCAfter: 64})
		for i := 0; i < 10; i++ {
			writeThrough(t, in, filepath.Join(dir, "f.bin"), []byte("0123456789"))
		}
		st := in.Stats()
		return []int64{st.Ops[OpWrite], st.Faults[OpWrite], st.BytesWritten}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at stat %d: %v vs %v", i, a, b)
		}
	}
	if a[1] == 0 {
		t.Fatal("expected at least one injected fault")
	}
}
