package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"behaviot/internal/modelstore"
)

// modelGens lists the generation directories of a -store's model/
// namespace.
func modelGens(t *testing.T, store string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(store, modelDir))
	if err != nil {
		t.Fatal(err)
	}
	var gens []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") {
			gens = append(gens, e.Name())
		}
	}
	return gens
}

// TestTrainedModelPins pins the bytes of the models the daemon trains:
// the -sim recipe every sim tenant classifies with, and the idle-only
// fixture of the in-process tests. A change that moves a pin updates it
// and says why; one that only refactors training must leave both alone.
func TestTrainedModelPins(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the -sim model")
	}
	acfg, _, err := trainingInputs(options{sim: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := train(options{sim: true}, acfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		name string
		snap []byte
		sum  string
		size int
	}{
		{"-sim", sim, "00894a3975bf72d9260bbd09ca0dda494d47506c54436014faf0ba93a4fc1aa9", 1957194},
		{"idle fixture", fixturePipeline(t), "287f1e4644b3db540a8c89956482e832a5d7db7cbd5fbe6878eefc50a2d4cd9c", 236483},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(pin.snap)); got != pin.sum || len(pin.snap) != pin.size {
			t.Errorf("%s model: sha256 %s, %d bytes; want %s, %d bytes", pin.name, got, len(pin.snap), pin.sum, pin.size)
		}
	}
}

// TestModelStoreTrainsOnce pins the model store across launches of
// single-home behaviotd over one -store: the first launch trains and
// stores one model generation; later ones, -resume or not, load it
// instead of training and leave it the only generation; a flipped byte
// in the stored pipeline.snap fails its CRC check, so the next launch
// trains again and replaces the generation. Every launch over the same
// capture writes the same event log, and a launch over a different
// -replay capture loads the same model.
func TestModelStoreTrainsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	h := homeRun{dir: t.TempDir()}
	h.idle, h.devices, h.replay = writeReplayFixtures(t, h.dir)
	store := h.store("a")
	launch := func(extra ...string) *daemonProc {
		t.Helper()
		p := h.runToCompletion(t, "a", extra...)
		if gens := modelGens(t, store); len(gens) != 1 {
			t.Fatalf("model store holds %v, want exactly one generation", gens)
		}
		return p
	}

	if trained, log := launch().trained(t); !trained {
		t.Fatalf("the first launch did not train; log:\n%s", log)
	}
	want, err := os.ReadFile(h.eventLog("a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("event log is empty; the fixture no longer produces deviations")
	}
	sameLog := func(when string) {
		t.Helper()
		got, err := os.ReadFile(h.eventLog("a"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: event log differs from the first launch's:\n%s\n--- want ---\n%s", when, got, want)
		}
	}
	gen := modelGens(t, store)[0]
	for _, extra := range [][]string{nil, {"-resume"}} {
		launch(extra...).requireModelLoaded(t)
		if got := modelGens(t, store)[0]; got != gen {
			t.Errorf("launch %v replaced model %s with %s", extra, gen, got)
		}
		sameLog(fmt.Sprintf("launch %v", extra))
	}

	snapPath := filepath.Join(store, modelDir, gen, modelstore.FilePipeline)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if trained, log := launch().trained(t); !trained {
		t.Fatalf("a launch over a corrupt stored model did not train; log:\n%s", log)
	}
	sameLog("retrained over the corrupt model")
	if got := modelGens(t, store)[0]; got == gen {
		t.Errorf("the corrupt model generation %s is still the stored one", gen)
	}
	s, err := modelstore.Open(filepath.Join(store, modelDir), modelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(""); err != nil {
		t.Errorf("the retrained model generation does not load: %v", err)
	}

	// Another -replay capture changes the checkpoint fingerprint, not
	// what training reads: the stored model still serves.
	gen = modelGens(t, store)[0]
	other := h
	other.replay = h.idle
	other.runToCompletion(t, "a").requireModelLoaded(t)
	if gens := modelGens(t, store); len(gens) != 1 || gens[0] != gen {
		t.Errorf("after a launch over another capture the model store holds %v, want only %s", gens, gen)
	}
}

// TestPreviousLayoutIsAColdStart pins the fingerprint bump: a tenant
// generation in the layout that carried the model in every checkpoint
// (pipeline.snap beside a version-1 monitor.snap, under the v2 home
// fingerprint) is not read, so -resume over it is a cold start — no
// fast-forward, resume_fallbacks_total 0 — whose event log equals a
// fresh run's.
func TestPreviousLayoutIsAColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test; skipped in -short")
	}
	h := homeRun{dir: t.TempDir()}
	h.idle, h.devices, h.replay = writeReplayFixtures(t, h.dir)
	h.runToCompletion(t, "a")

	_, inputs, err := trainingInputs(options{idle: h.idle, devices: h.devices})
	if err != nil {
		t.Fatal(err)
	}
	crc, err := fileCRC(h.replay)
	if err != nil {
		t.Fatal(err)
	}
	old, err := modelstore.OpenTenant(h.store("b"), homeID, modelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write(fmt.Sprintf("behaviotd/v2|mode=home%s|replay=%08x", inputs, crc), map[string][]byte{
		modelstore.FilePipeline: []byte("a pipeline snapshot"),
		modelstore.FileMonitor:  []byte{1, 0, 0, 0},
		modelstore.FileTenant:   []byte{1, 0, 0, 0},
	}); err != nil {
		t.Fatal(err)
	}

	p := startDaemon(t, h.dir, h.args("b", "1h", "-resume")...)
	p.waitForLog(t, "feed complete", 120*time.Second)
	st := p.status(t)
	p.terminate(t)
	if got := st["resume_fallbacks_total"]; got != float64(0) {
		t.Errorf("resume_fallbacks_total = %v over a previous-layout store, want 0", got)
	}
	if _, log := p.trained(t); strings.Contains(log, "fast-forwarding") {
		t.Errorf("the daemon resumed from a previous-layout generation; log:\n%s", log)
	}
	a, err := os.ReadFile(h.eventLog("a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(h.eventLog("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("event log after a previous-layout resume differs from a fresh run's:\n%s\n--- want ---\n%s", b, a)
	}
}
