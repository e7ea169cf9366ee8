package faultfs

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseConfig parses a comma-separated fault spec into a Config, the
// syntax of the behaviotd -store-fault flag (mirroring chaos.ParseConfig
// for the -impair flag one layer up):
//
//	failwrite=3,count=2,tear=5,path=.delta,match=1
//	enospc=4096,path=tenants/home-042
//	failrename=1
//
// failwrite/failsync/failrename are 1-based operation indexes, count
// widens each into a window of consecutive failures, tear persists a
// byte prefix of the faulted write, enospc is the disk-full byte
// budget, path narrows every rule to matching paths, and match=1
// switches the fail knobs to count only matching operations
// (Config.CountMatches). Unknown keys are errors, and so is a spec whose
// modifiers (count, tear, path, match) have no fault to modify: it would
// inject nothing while looking as if it did. An empty spec is the
// identity Config.
func ParseConfig(s string) (Config, error) {
	var cfg Config
	s = strings.TrimSpace(s)
	if s == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("faultfs: bad fault %q (want key=value)", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "failwrite", "failsync", "failrename", "count", "enospc":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("faultfs: %s %q is not a positive integer", key, val)
			}
			switch key {
			case "failwrite":
				cfg.FailWriteNth = n
			case "failsync":
				cfg.FailSyncNth = n
			case "failrename":
				cfg.FailRenameNth = n
			case "count":
				cfg.FailCount = n
			case "enospc":
				cfg.ENOSPCAfter = n
			}
		case "tear":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("faultfs: tear %q is not a positive integer", val)
			}
			cfg.TearBytes = n
		case "path":
			if val == "" {
				return cfg, fmt.Errorf("faultfs: path needs a non-empty substring")
			}
			cfg.PathContains = val
		case "match":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return cfg, fmt.Errorf("faultfs: match %q is not a boolean", val)
			}
			cfg.CountMatches = b
		default:
			return cfg, fmt.Errorf("faultfs: unknown fault key %q", key)
		}
	}
	if len(cfg.Rules()) == 0 && cfg != (Config{}) {
		return cfg, fmt.Errorf("faultfs: spec %q sets no failwrite, failsync, failrename or enospc fault", s)
	}
	if cfg.TearBytes > 0 && cfg.FailWriteNth == 0 {
		return cfg, fmt.Errorf("faultfs: tear needs failwrite")
	}
	return cfg, nil
}

// String renders the Config back in ParseConfig syntax (only the
// active knobs), for logs.
func (c Config) String() string {
	var parts []string
	addInt := func(k string, v int64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, v))
		}
	}
	addInt("failwrite", c.FailWriteNth)
	addInt("failsync", c.FailSyncNth)
	addInt("failrename", c.FailRenameNth)
	addInt("count", c.FailCount)
	addInt("tear", int64(c.TearBytes))
	addInt("enospc", c.ENOSPCAfter)
	if c.PathContains != "" {
		parts = append(parts, "path="+c.PathContains)
	}
	if c.CountMatches {
		parts = append(parts, "match=1")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
