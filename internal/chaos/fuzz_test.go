package chaos

import (
	"math"
	"testing"
)

// FuzzParseConfig checks the -impair spec parser on arbitrary input: it
// never panics; an accepted spec renders "none" exactly when it yields
// no operators; otherwise its rendering parses back to the same
// rendering; and accepted drift is finite and above -1e6 PPM.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"", "none", "drop=0.01,dup=0.005,reorder=0.02,window=4,skew=50ms,drift=200",
		"burst=0.001,burstlen=8,truncate=0.002,corrupt=0.01,corruptbytes=4",
		"window=4", "skew=-1h", "drift=-999999", "drift=NaN", "DROP = 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseConfig(spec)
		if err != nil {
			return
		}
		if math.IsNaN(cfg.DriftPPM) || math.IsInf(cfg.DriftPPM, 0) || cfg.DriftPPM <= -1e6 {
			t.Fatalf("ParseConfig(%q) accepted drift %v", spec, cfg.DriftPPM)
		}
		rendered := cfg.String()
		if none := rendered == "none"; none != (len(cfg.Ops()) == 0) {
			t.Fatalf("ParseConfig(%q) renders %q with %d operators", spec, rendered, len(cfg.Ops()))
		}
		if rendered == "none" {
			return
		}
		back, err := ParseConfig(rendered)
		if err != nil {
			t.Fatalf("rendering %q of %q does not parse: %v", rendered, spec, err)
		}
		if got := back.String(); got != rendered {
			t.Fatalf("%q renders %q, which parses back to %q", spec, rendered, got)
		}
	})
}
