package faultfs

import "testing"

// FuzzParseConfig checks the -store-fault spec parser on arbitrary
// input: it never panics; an accepted spec renders "none" exactly when
// it yields no rules; otherwise its rendering parses back to the same
// rendering.
func FuzzParseConfig(f *testing.F) {
	for _, seed := range []string{
		"", "none", "failwrite=3,count=2,tear=5,path=.delta,match=1",
		"enospc=4096,path=tenants/home-042", "failsync=2,failrename=7",
		"count=2", "match=0", " FAILWRITE = 1 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseConfig(spec)
		if err != nil {
			return
		}
		rendered := cfg.String()
		if none := rendered == "none"; none != (len(cfg.Rules()) == 0) {
			t.Fatalf("ParseConfig(%q) renders %q with %d rules", spec, rendered, len(cfg.Rules()))
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
