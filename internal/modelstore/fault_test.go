package modelstore

import (
	"errors"
	"os"
	"syscall"
	"testing"

	"behaviot/internal/faultfs"
)

// seedStore writes one good generation and returns the store plus the
// injector its filesystem routes through.
func seedStore(t *testing.T, dir string) (*Store, *faultfs.Injector) {
	t.Helper()
	in := faultfs.New(faultfs.OS{})
	st, err := Open(dir, Options{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen1-pipeline")}); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	return st, in
}

func TestWriteENOSPCReturnsTypedErrorAndKeepsPriorGeneration(t *testing.T) {
	st, in := seedStore(t, t.TempDir())
	// Every byte from here on overflows the disk.
	in.SetRules(faultfs.DiskFull{AfterBytes: 1})

	_, err := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen2-pipeline")})
	if err == nil {
		t.Fatal("Write on a full disk succeeded")
	}
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("error is %T, want *WriteError: %v", err, err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error does not unwrap to ENOSPC: %v", err)
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("error does not unwrap to faultfs.ErrInjected: %v", err)
	}

	in.SetRules() // disk freed
	snap, err := st.Load("fp")
	if err != nil {
		t.Fatalf("Load after failed write: %v", err)
	}
	if snap.Generation != 1 || string(snap.Files[FilePipeline]) != "gen1-pipeline" {
		t.Fatalf("prior generation damaged: gen=%d files=%q", snap.Generation, snap.Files[FilePipeline])
	}
	if intact := intactGens(t, st); len(intact) != 1 || intact[0] != 1 {
		t.Fatalf("intact = %v; want [1]", intact)
	}
}

func TestWriteTornManifestFallsBack(t *testing.T) {
	st, in := seedStore(t, t.TempDir())
	// The manifest is written last: tear the next manifest write so the
	// staged generation is structurally torn (prefix on disk, error
	// reported). Seq numbering is global per kind, so scope by path and
	// window past the seed write's two writes.
	in.SetRules(faultfs.FailOp{
		Kind: faultfs.OpWrite, Nth: 3, Count: 1 << 30, Tear: 5,
		PathContains: manifestName,
	})
	_, err := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen2-pipeline")})
	var we *WriteError
	if !errors.As(err, &we) || we.Op != "manifest" {
		t.Fatalf("error = %v, want *WriteError with Op=manifest", err)
	}
	in.SetRules()

	snap, err := st.Load("fp")
	if err != nil || snap.Generation != 1 {
		t.Fatalf("Load = gen %d, %v; want the intact gen 1", snap.Generation, err)
	}
	// A later write sweeps the torn staging dir and lands cleanly.
	if gen, err := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen2-retry")}); err != nil || gen != 2 {
		t.Fatalf("retry write = %d, %v", gen, err)
	}
	if intact := intactGens(t, st); len(intact) != 2 {
		t.Fatalf("intact after retry = %v, want two generations", intact)
	}
}

func TestWriteFailedRenameKeepsPriorGeneration(t *testing.T) {
	st, in := seedStore(t, t.TempDir())
	// The seed write consumed rename #1; fault the next one.
	in.SetRules(faultfs.FailOp{Kind: faultfs.OpRename, Nth: 2})
	_, err := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen2")})
	var we *WriteError
	if !errors.As(err, &we) || we.Op != "rename" {
		t.Fatalf("error = %v, want *WriteError with Op=rename", err)
	}
	in.SetRules()
	if snap, err := st.Load("fp"); err != nil || snap.Generation != 1 {
		t.Fatalf("prior generation lost after failed rename: %v", err)
	}
}

func TestWriteReadOnlyStoreDir(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: chmod 0555 does not deny writes")
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen1")}); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)

	_, werr := st.Write("fp", map[string][]byte{FilePipeline: []byte("gen2")})
	var we *WriteError
	if !errors.As(werr, &we) {
		t.Fatalf("read-only store error is %T, want *WriteError: %v", werr, werr)
	}
	if err := os.Chmod(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if snap, err := st.Load("fp"); err != nil || string(snap.Files[FilePipeline]) != "gen1" {
		t.Fatalf("prior generation unreadable after read-only failure: %v", err)
	}
}
