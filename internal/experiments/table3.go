package experiments

import (
	"fmt"
	"strings"

	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/parallel"
	"behaviot/internal/pingpong"
)

// Table3Devices are the six devices overlapping with the PingPong study.
var Table3Devices = []string{
	"Amazon Plug", "Wemo Plug", "TPLink Bulb",
	"TPLink Plug", "Nest Thermostat", "Smartlife Bulb",
}

// Table3Row compares BehavIoT and PingPong on one device.
type Table3Row struct {
	Device   string
	BehavIoT float64
	PingPong float64
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 evaluates both classifiers on the six overlapping devices:
// BehavIoT's feature-based Random Forests vs PingPong's packet-level
// signatures, trained on the same repetitions and tested on fresh ones.
func Table3(l *Lab) *Table3Result {
	keep := map[string]bool{}
	for _, d := range Table3Devices {
		keep[d] = true
	}
	// Training data per label for both systems.
	training := map[string][]*flows.Flow{}
	for _, s := range l.Samples() {
		if keep[s.Device] {
			if f := mainActivityFlow(s); f != nil {
				training[s.Label] = append(training[s.Label], f)
			}
		}
	}
	pp := pingpong.Train(training)
	pipe := l.Pipeline()

	// Both classifiers are read-only after training, so the held-out
	// samples score concurrently; verdicts fold into per-device tallies
	// in sample order.
	heldOut := l.HeldOutSamples(6)
	type verdict struct {
		skip     bool
		bOK, pOK bool
	}
	verdicts := parallel.Map(l.Scale.Workers, heldOut, func(_ int, s datasets.ActivitySample) verdict {
		if !keep[s.Device] {
			return verdict{skip: true}
		}
		f := mainActivityFlow(s)
		if f == nil {
			return verdict{skip: true}
		}
		var v verdict
		if label, _, ok := pipe.UserAction.Classify(f); ok && label == s.Label {
			v.bOK = true
		}
		if label, ok := pp.Classify(f); ok && label == s.Label {
			v.pOK = true
		}
		return v
	})
	type acc struct{ bOK, pOK, n int }
	byDevice := map[string]*acc{}
	for i, s := range heldOut {
		v := verdicts[i]
		if v.skip {
			continue
		}
		a := byDevice[s.Device]
		if a == nil {
			a = &acc{}
			byDevice[s.Device] = a
		}
		a.n++
		if v.bOK {
			a.bOK++
		}
		if v.pOK {
			a.pOK++
		}
	}
	res := &Table3Result{}
	for _, dev := range Table3Devices {
		a := byDevice[dev]
		if a == nil || a.n == 0 {
			continue
		}
		res.Rows = append(res.Rows, Table3Row{
			Device:   dev,
			BehavIoT: float64(a.bOK) / float64(a.n),
			PingPong: float64(a.pOK) / float64(a.n),
		})
	}
	return res
}

// String renders the comparison.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3: User event classification, BehavIoT vs PingPong\n")
	fmt.Fprintf(&b, "%-18s %10s %10s\n", "Device", "BehavIoT", "PingPong")
	var bSum, pSum float64
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s %9.1f%% %9.1f%%\n", row.Device, row.BehavIoT*100, row.PingPong*100)
		bSum += row.BehavIoT
		pSum += row.PingPong
	}
	if n := float64(len(r.Rows)); n > 0 {
		fmt.Fprintf(&b, "%-18s %9.1f%% %9.1f%%\n", "Average", bSum/n*100, pSum/n*100)
	}
	b.WriteString("Paper: BehavIoT ≥ PingPong on every device (e.g. TP-Link Bulb 96.2% vs 83.3%)\n")
	return b.String()
}

// WinsOrTies counts devices where BehavIoT meets or exceeds PingPong
// (the paper reports 6 of 6).
func (r *Table3Result) WinsOrTies() int {
	n := 0
	for _, row := range r.Rows {
		if row.BehavIoT >= row.PingPong {
			n++
		}
	}
	return n
}
