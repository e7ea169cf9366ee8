package chaos

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"behaviot/internal/pcapio"
)

// testRecords builds a deterministic record stream with varied sizes
// and strictly increasing timestamps.
func testRecords(n int) []pcapio.Record {
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(11))
	recs := make([]pcapio.Record, n)
	for i := range recs {
		data := make([]byte, 20+rng.Intn(200))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		recs[i] = pcapio.Record{
			Time: base.Add(time.Duration(i) * 50 * time.Millisecond),
			Data: data,
		}
	}
	return recs
}

func recordsEqual(a, b []pcapio.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Time.Equal(b[i].Time) || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

var sweepConfig = Config{
	DropRate: 0.05, BurstRate: 0.01, BurstLen: 4,
	DuplicateRate: 0.03, ReorderRate: 0.1, ReorderWindow: 4,
	TruncateRate: 0.02, CorruptRate: 0.05, CorruptBytes: 4,
	Skew: 50 * time.Millisecond, DriftPPM: 200,
}

// TestImpairDeterministic pins the chaos determinism contract: the same
// (records, seed, config) always produces byte-identical output, and
// repeated application does not observe any hidden state.
func TestImpairDeterministic(t *testing.T) {
	recs := testRecords(500)
	a := Impair(recs, 99, sweepConfig)
	b := Impair(recs, 99, sweepConfig)
	if !recordsEqual(a, b) {
		t.Fatal("Impair is not deterministic for identical inputs")
	}
	if recordsEqual(a, Impair(recs, 100, sweepConfig)) {
		t.Error("different seeds produced identical impaired streams")
	}
}

// TestImpairDoesNotMutateInput verifies operators copy rather than
// write through the input records — the property that makes sharing
// one record slice across parallel experiment workers safe.
func TestImpairDoesNotMutateInput(t *testing.T) {
	recs := testRecords(300)
	snapshot := make([]pcapio.Record, len(recs))
	for i, r := range recs {
		snapshot[i] = pcapio.Record{Time: r.Time, Data: append([]byte(nil), r.Data...)}
	}
	Impair(recs, 7, sweepConfig)
	if !recordsEqual(recs, snapshot) {
		t.Fatal("Impair mutated its input records")
	}
}

// TestZeroRatesAreIdentity is the property test from the issue: a chain
// of drop and duplicate (and every other rate-driven operator) at rate
// zero must return the stream unchanged.
func TestZeroRatesAreIdentity(t *testing.T) {
	recs := testRecords(200)
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"drop", Drop{Rate: 0}},
		{"duplicate", Duplicate{Rate: 0}},
		{"burst", BurstLoss{Rate: 0, MeanLen: 8}},
		{"reorder", Reorder{Rate: 0, Window: 4}},
		{"truncate", Truncate{Rate: 0}},
		{"corrupt", Corrupt{Rate: 0, MaxBytes: 4}},
	} {
		rng := rand.New(rand.NewSource(1))
		if !recordsEqual(tc.op.Apply(rng, recs), recs) {
			t.Errorf("%s at rate 0 is not the identity", tc.name)
		}
	}
	// The zero Config composes to the identity too.
	if !recordsEqual(Impair(recs, 3, Config{}), recs) {
		t.Error("zero Config is not the identity")
	}
}

// TestSubSeedDecorrelates mirrors the testbed.SubSeed contract at the
// wire layer: distinct op positions/names must get distinct streams.
func TestSubSeedDecorrelates(t *testing.T) {
	seen := map[int64]string{}
	for _, parts := range [][]string{
		{"op0", "drop"}, {"op1", "drop"}, {"op0", "duplicate"}, {"op1", "duplicate"},
	} {
		s := SubSeed(42, parts...)
		if prev, dup := seen[s]; dup {
			t.Errorf("SubSeed collision between %v and %s", parts, prev)
		}
		seen[s] = parts[0] + "/" + parts[1]
	}
}

// TestDropRate sanity-checks the loss operators actually lose roughly
// the configured fraction.
func TestDropRate(t *testing.T) {
	recs := testRecords(2000)
	out := Impair(recs, 5, Config{DropRate: 0.25})
	lost := len(recs) - len(out)
	if lost < 300 || lost > 700 {
		t.Errorf("drop rate 0.25 on 2000 records lost %d, want ~500", lost)
	}
}

// TestDuplicateAdjacent verifies duplicates are delivered back-to-back
// and share bytes with the original (double delivery, not new traffic).
func TestDuplicateAdjacent(t *testing.T) {
	recs := testRecords(500)
	out := Duplicate{Rate: 0.2}.Apply(rand.New(rand.NewSource(9)), recs)
	if len(out) <= len(recs) {
		t.Fatalf("duplicate rate 0.2 added no records (%d -> %d)", len(recs), len(out))
	}
	dups := 0
	for i := 1; i < len(out); i++ {
		if out[i].Time.Equal(out[i-1].Time) && bytes.Equal(out[i].Data, out[i-1].Data) {
			dups++
		}
	}
	if dups != len(out)-len(recs) {
		t.Errorf("found %d adjacent duplicates, want %d", dups, len(out)-len(recs))
	}
}

// TestReorderBounded verifies reordering displaces records by at most
// the window and preserves the multiset of records.
func TestReorderBounded(t *testing.T) {
	recs := testRecords(400)
	const window = 4
	out := Reorder{Rate: 0.3, Window: window}.Apply(rand.New(rand.NewSource(3)), recs)
	if len(out) != len(recs) {
		t.Fatalf("reorder changed record count %d -> %d", len(recs), len(out))
	}
	pos := map[string]int{}
	for i, r := range recs {
		pos[string(r.Data)] = i
	}
	moved := 0
	for i, r := range out {
		orig, ok := pos[string(r.Data)]
		if !ok {
			t.Fatalf("reorder invented a record at %d", i)
		}
		if d := i - orig; d < -window-1 || d > window+1 {
			t.Errorf("record %d displaced by %d, window is %d", orig, d, window)
		}
		if i != orig {
			moved++
		}
	}
	if moved == 0 {
		t.Error("reorder rate 0.3 moved nothing")
	}
}

// TestTruncateShortens verifies truncation only ever shortens Data and
// never drops a record.
func TestTruncateShortens(t *testing.T) {
	recs := testRecords(500)
	out := Truncate{Rate: 0.5}.Apply(rand.New(rand.NewSource(4)), recs)
	if len(out) != len(recs) {
		t.Fatalf("truncate changed record count %d -> %d", len(recs), len(out))
	}
	shortened := 0
	for i := range out {
		switch {
		case len(out[i].Data) > len(recs[i].Data):
			t.Fatalf("record %d grew under truncation", i)
		case len(out[i].Data) < len(recs[i].Data):
			shortened++
			if !bytes.Equal(out[i].Data, recs[i].Data[:len(out[i].Data)]) {
				t.Fatalf("record %d truncation is not a prefix", i)
			}
		}
	}
	if shortened == 0 {
		t.Error("truncate rate 0.5 shortened nothing")
	}
}

// TestCorruptFlipsBytes verifies corruption changes bytes in place
// (same length) in a fresh buffer.
func TestCorruptFlipsBytes(t *testing.T) {
	recs := testRecords(500)
	out := Corrupt{Rate: 0.5, MaxBytes: 4}.Apply(rand.New(rand.NewSource(6)), recs)
	corrupted := 0
	for i := range out {
		if len(out[i].Data) != len(recs[i].Data) {
			t.Fatalf("corrupt changed record %d length", i)
		}
		if !bytes.Equal(out[i].Data, recs[i].Data) {
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Error("corrupt rate 0.5 changed nothing")
	}
}

// TestSkewAndDriftShiftTimestamps verifies the clock operators move
// timestamps but never payloads.
func TestSkewAndDriftShiftTimestamps(t *testing.T) {
	recs := testRecords(100)
	skewed := Impair(recs, 1, Config{Skew: -2 * time.Second})
	for i := range skewed {
		if want := recs[i].Time.Add(-2 * time.Second); !skewed[i].Time.Equal(want) {
			t.Fatalf("record %d skewed to %v, want %v", i, skewed[i].Time, want)
		}
		if !bytes.Equal(skewed[i].Data, recs[i].Data) {
			t.Fatalf("skew touched record %d payload", i)
		}
	}
	drifted := Impair(recs, 1, Config{DriftPPM: 1e5}) // 10% stretch, visible at this scale
	if drifted[0].Time != recs[0].Time {
		t.Error("drift moved the first record (gaps stretch from the origin)")
	}
	last := len(recs) - 1
	if !drifted[last].Time.After(recs[last].Time) {
		t.Error("positive drift did not stretch the capture")
	}
}

// TestCorruptFilePreservesHeaderAndLength verifies raw file-image
// corruption spares the protected prefix and never resizes.
func TestCorruptFilePreservesHeaderAndLength(t *testing.T) {
	raw := make([]byte, 4096)
	for i := range raw {
		raw[i] = byte(i)
	}
	out := CorruptFile(raw, 24, 0.05, 42)
	if len(out) != len(raw) {
		t.Fatalf("CorruptFile resized %d -> %d", len(raw), len(out))
	}
	if !bytes.Equal(out[:24], raw[:24]) {
		t.Error("CorruptFile touched the protected file header")
	}
	if bytes.Equal(out[24:], raw[24:]) {
		t.Error("CorruptFile at 5% changed nothing")
	}
	if again := CorruptFile(raw, 24, 0.05, 42); !bytes.Equal(out, again) {
		t.Error("CorruptFile is not deterministic")
	}
}

// TestParseConfigRoundTrip checks the -impair spec syntax parses,
// renders, and rejects garbage.
func TestParseConfigRoundTrip(t *testing.T) {
	cfg, err := ParseConfig("drop=0.01,dup=0.005,reorder=0.02,window=4,skew=50ms,drift=200")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DropRate != 0.01 || cfg.DuplicateRate != 0.005 || cfg.ReorderWindow != 4 ||
		cfg.Skew != 50*time.Millisecond || cfg.DriftPPM != 200 {
		t.Errorf("ParseConfig mis-parsed: %+v", cfg)
	}
	if cfg.String() == "none" {
		t.Error("active config renders as none")
	}
	if c, err := ParseConfig(""); err != nil || c != (Config{}) {
		t.Errorf("empty spec: cfg=%+v err=%v", c, err)
	}
}

// TestParseConfigRejects checks ParseConfig refuses garbage, and refuses
// a spec made only of modifiers with an error that names them: such a
// spec configures no operator and would render as "none".
func TestParseConfigRejects(t *testing.T) {
	for _, bad := range []string{
		"drop=2", "drop=-0.1", "drop=NaN", "nonsense=1", "drop", "window=0", "skew=fast",
		"drift=NaN", "drift=Inf", "drift=-Inf", "drift=-1e6", "drift=-2e6",
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted garbage", bad)
		}
	}
	for spec, key := range map[string]string{
		"window=4":                  "window",
		"burstlen=8":                "burstlen",
		"corruptbytes=4":            "corruptbytes",
		"reorder=0,window=4":        "window",
		"burst=0,burstlen=8,drop=0": "burstlen",
		"window=4,corruptbytes=2":   "window, corruptbytes",
		"skew=0s,corruptbytes=4":    "corruptbytes",
	} {
		_, err := ParseConfig(spec)
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseConfig(%q) = %v; want an error naming %s", spec, err, key)
		}
	}
	// A modifier next to an operator still parses, and so does a spec
	// whose every value is the identity.
	for _, ok := range []string{"reorder=0.1,window=4", "drop=0.1,burstlen=8", "drop=0", "skew=0s"} {
		if _, err := ParseConfig(ok); err != nil {
			t.Errorf("ParseConfig(%q): %v", ok, err)
		}
	}
}
