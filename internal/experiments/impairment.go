package experiments

import (
	"fmt"
	"strings"
	"time"

	"behaviot/internal/chaos"
	"behaviot/internal/datasets"
	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/parallel"
	"behaviot/internal/pcapio"
	"behaviot/internal/stream"
	"behaviot/internal/testbed"
)

// ImpairmentPoint is one cell of the robustness sweep: the online
// monitor fed a wire-level-impaired capture of a day with a known
// device malfunction.
type ImpairmentPoint struct {
	Label    string
	Records  int   // impaired records fed
	Packets  int64 // packets that survived decode and the skew gate
	ParseErr int64 // frames the tolerant decode path counted out
	Periodic int64 // periodic events recognized
	User     int64
	Devs     int64 // deviations raised
	Detected bool  // the silenced device was flagged
}

// ImpairmentResult is the deviation-detection-under-impairment sweep:
// loss ∈ {0, 0.1%, 1%, 5%}, clock skew ∈ {0, ±50 ms, ±2 s}, plus a
// damage row (truncation + byte corruption) exercising the tolerant
// decode path. No figure in the paper reports this; it quantifies the
// §7.2 deployment claim that gateway capture is never pristine.
type ImpairmentResult struct {
	Points []ImpairmentPoint
}

// impairmentPoints is the sweep grid. Loss and skew axes vary
// independently (the zero point is shared); the damage row is the
// tolerant-ingest showcase.
func impairmentPoints() []struct {
	label string
	cfg   chaos.Config
} {
	return []struct {
		label string
		cfg   chaos.Config
	}{
		{"baseline", chaos.Config{}},
		{"loss 0.1%", chaos.Config{DropRate: 0.001}},
		{"loss 1%", chaos.Config{DropRate: 0.01}},
		{"loss 5%", chaos.Config{DropRate: 0.05}},
		{"skew -2s", chaos.Config{Skew: -2 * time.Second}},
		{"skew -50ms", chaos.Config{Skew: -50 * time.Millisecond}},
		{"skew +50ms", chaos.Config{Skew: 50 * time.Millisecond}},
		{"skew +2s", chaos.Config{Skew: 2 * time.Second}},
		{"damage 1%", chaos.Config{TruncateRate: 0.01, CorruptRate: 0.01}},
	}
}

// impairmentCapture synthesizes the evaluation day once: periodic
// heartbeats for a handful of devices, one user interaction, and a
// device silenced halfway through (the malfunction every point must
// still detect). Returns the wire records and the silenced device name.
func impairmentCapture(l *Lab) ([]pcapio.Record, string, error) {
	devices := l.Devices()
	if len(devices) > 6 {
		devices = devices[:6]
	}
	g := testbed.NewGenerator(l.TB, l.Scale.Seed+500)
	start := datasets.DefaultStart.Add(60 * 24 * time.Hour)
	const window = 8 * time.Hour
	var streams [][]*netparse.Packet
	for _, d := range devices {
		streams = append(streams, g.BootstrapDNS(d, start.Add(-time.Minute)))
		streams = append(streams, g.PeriodicWindow(d, start, start.Add(window)))
	}
	first := devices[0]
	if len(first.Activities) > 0 {
		streams = append(streams, g.Activity(first, &first.Activities[0], start.Add(2*time.Hour), 0))
	}
	pkts := testbed.MergePackets(streams...)

	// Malfunction: the last device goes dark at half-window.
	silenced := devices[len(devices)-1]
	cut := start.Add(window / 2)
	kept := pkts[:0]
	for _, p := range pkts {
		if p.Timestamp.After(cut) && (p.SrcIP == silenced.IP || p.DstIP == silenced.IP) {
			continue
		}
		kept = append(kept, p)
	}
	recs, err := datasets.EncodePackets(kept)
	if err != nil {
		return nil, "", err
	}
	return recs, silenced.Name, nil
}

// Impairment runs the sweep. Each point impairs the shared capture with
// a point-derived sub-seed, then replays it through a fresh online
// monitor, which forks the anchor-free pipeline (empty periodic timer
// anchors, the shared read-only models), so points are independent and
// the result is identical for every Workers value.
func Impairment(l *Lab) (*ImpairmentResult, error) {
	pipe := l.Pipeline() // materialize before the fan-out
	pipe.Periodic.Reset()
	recs, silenced, err := impairmentCapture(l)
	if err != nil {
		return nil, err
	}
	acfg := flows.Config{LocalPrefix: l.TB.LocalPrefix, DeviceByIP: l.TB.DeviceByIP()}
	grid := impairmentPoints()

	points := parallel.Map(l.Scale.Workers, grid, func(_ int, pt struct {
		label string
		cfg   chaos.Config
	}) ImpairmentPoint {
		impaired := chaos.Impair(recs, chaos.SubSeed(l.Scale.Seed, "impairment", pt.label), pt.cfg)

		detected := false
		m := stream.NewMonitor(pipe, acfg, stream.Config{
			OnDeviation: func(d stream.Deviation) {
				if d.Device == silenced {
					detected = true
				}
			},
		})
		for _, r := range impaired {
			m.FeedRecord(r.Time, r.Data)
		}
		m.Close()
		st := m.Stats()
		return ImpairmentPoint{
			Label:    pt.label,
			Records:  len(impaired),
			Packets:  st.Packets,
			ParseErr: st.ParseErrors,
			Periodic: st.Periodic,
			User:     st.User,
			Devs:     st.Deviations,
			Detected: detected,
		}
	})
	return &ImpairmentResult{Points: points}, nil
}

// String renders the sweep table.
func (r *ImpairmentResult) String() string {
	var b strings.Builder
	b.WriteString("Impairment sweep: deviation detection vs capture impairment\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %7s %9s %5s %5s  %s\n",
		"impairment", "records", "packets", "perr", "periodic", "user", "dev", "malfunction")
	for _, p := range r.Points {
		verdict := "MISSED"
		if p.Detected {
			verdict = "detected"
		}
		fmt.Fprintf(&b, "%-12s %8d %8d %7d %9d %5d %5d  %s\n",
			p.Label, p.Records, p.Packets, p.ParseErr, p.Periodic, p.User, p.Devs, verdict)
	}
	b.WriteString("Detection of a silenced device must survive loss ≤5% and skew ≤2s;\n")
	b.WriteString("damaged frames are counted by the tolerant decode path, not fatal.\n")
	return b.String()
}
