package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ParseConfig parses a comma-separated impairment spec into a Config,
// the syntax of the behaviotd -impair flag and the gendata chaos knob:
//
//	drop=0.01,dup=0.005,reorder=0.02,window=4,truncate=0.002,
//	corrupt=0.01,corruptbytes=4,burst=0.001,burstlen=8,
//	skew=50ms,drift=200
//
// Rates are probabilities in [0,1], skew is a Go duration (may be
// negative), drift is a finite parts-per-million value above -1e6 (at
// -1e6 the clock stops, below it runs backwards). Unknown keys and
// out-of-range values are errors, and so is a spec whose modifiers
// (window, burstlen, corruptbytes) have no operator to modify: it would
// impair nothing while looking as if it did. An empty spec is the
// identity Config.
func ParseConfig(s string) (Config, error) {
	var cfg Config
	s = strings.TrimSpace(s)
	if s == "" {
		return cfg, nil
	}
	var modifiers []string
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad impairment %q (want key=value)", part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "drop", "dup", "duplicate", "reorder", "truncate", "corrupt", "burst":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil || !(rate >= 0 && rate <= 1) { // NaN fails both
				return cfg, fmt.Errorf("chaos: %s rate %q is not a probability in [0,1]", key, val)
			}
			switch key {
			case "drop":
				cfg.DropRate = rate
			case "dup", "duplicate":
				cfg.DuplicateRate = rate
			case "reorder":
				cfg.ReorderRate = rate
			case "truncate":
				cfg.TruncateRate = rate
			case "corrupt":
				cfg.CorruptRate = rate
			case "burst":
				cfg.BurstRate = rate
			}
		case "window", "burstlen", "corruptbytes":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("chaos: %s %q is not a positive integer", key, val)
			}
			modifiers = append(modifiers, key)
			switch key {
			case "window":
				cfg.ReorderWindow = n
			case "burstlen":
				cfg.BurstLen = n
			case "corruptbytes":
				cfg.CorruptBytes = n
			}
		case "skew":
			d, err := time.ParseDuration(val)
			if err != nil {
				return cfg, fmt.Errorf("chaos: skew %q is not a duration: %v", val, err)
			}
			cfg.Skew = d
		case "drift":
			ppm, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return cfg, fmt.Errorf("chaos: drift %q is not a PPM value: %v", val, err)
			}
			if math.IsNaN(ppm) || math.IsInf(ppm, 0) || ppm <= -1e6 {
				return cfg, fmt.Errorf("chaos: drift %q is not a finite PPM value above -1e6", val)
			}
			cfg.DriftPPM = ppm
		default:
			return cfg, fmt.Errorf("chaos: unknown impairment key %q", key)
		}
	}
	if len(cfg.Ops()) == 0 && cfg != (Config{}) {
		return cfg, fmt.Errorf("chaos: %s modifies no impairment: spec %q sets no drop, dup, reorder, truncate, corrupt, burst, skew or drift",
			strings.Join(modifiers, ", "), s)
	}
	return cfg, nil
}

// String renders the Config back in ParseConfig syntax (only the
// active knobs), for logs and experiment row labels.
func (c Config) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
	}
	add("drop", c.DropRate)
	add("burst", c.BurstRate)
	if c.BurstRate > 0 && c.BurstLen > 0 {
		parts = append(parts, fmt.Sprintf("burstlen=%d", c.BurstLen))
	}
	add("dup", c.DuplicateRate)
	add("reorder", c.ReorderRate)
	if c.ReorderRate > 0 && c.ReorderWindow > 0 {
		parts = append(parts, fmt.Sprintf("window=%d", c.ReorderWindow))
	}
	add("truncate", c.TruncateRate)
	add("corrupt", c.CorruptRate)
	if c.CorruptRate > 0 && c.CorruptBytes > 0 {
		parts = append(parts, fmt.Sprintf("corruptbytes=%d", c.CorruptBytes))
	}
	if c.Skew != 0 {
		parts = append(parts, fmt.Sprintf("skew=%s", c.Skew))
	}
	//lint:ignore floateq exact zero means the drift knob is unset
	if c.DriftPPM != 0 {
		parts = append(parts, fmt.Sprintf("drift=%v", c.DriftPPM))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}
