package main

import (
	"fmt"
	"time"

	"behaviot/internal/datasets"
	"behaviot/internal/netparse"
	"behaviot/internal/testbed"
)

// simDevices are the four devices `behaviotd -fleet -sim` trains on; the
// workloads replay traffic from exactly these homes.
var simDevices = []string{"TPLink Plug", "Ring Camera", "Gosund Bulb", "Echo Spot"}

// streamStart anchors the monitored streams two weeks after the
// training data (idle day at DefaultStart, routine day at +7 d), so no
// monitored record predates anything the models were trained on.
var streamStart = datasets.DefaultStart.Add(14 * 24 * time.Hour)

// workload is one fixed traffic mix. All three are open loop: records
// are due on a fixed schedule whatever the daemon does.
type workload struct {
	name string
	// tenants homes, round-robin over conns ingest connections. Tenant i
	// replays stream class i%classes, generated from seed+class.
	tenants, conns, classes int
	// ratePerConn is the offered load of one connection, records/s.
	ratePerConn int
	// streamHours of periodic traffic per class stream before it wraps;
	// one user activity every actEvery of stream time.
	streamHours int
	actEvery    time.Duration
	// visit > 0 makes each connection rotate through its tenants,
	// sending visit records per dial (dial, hello, send, half-close,
	// final ack). visit == 0 keeps one connection open for the whole run.
	visit int
	// ckptInterval is the daemon's -checkpoint-interval: short on the
	// checkpointing workload, longer than any run elsewhere so that only
	// the final checkpoint at drain is written.
	ckptInterval string
}

var workloads = []workload{
	{
		name: "home-steady", tenants: 1, conns: 1, classes: 1, ratePerConn: 50000,
		streamHours: 24, actEvery: 2 * time.Minute, ckptInterval: "1h",
	},
	{
		name: "home-active", tenants: 1, conns: 1, classes: 1, ratePerConn: 50000,
		streamHours: 24, actEvery: 20 * time.Second, ckptInterval: "1h",
	},
	{
		name: "fleet-ckpt", tenants: 16, conns: 2, classes: 4, ratePerConn: 12500,
		streamHours: 4, actEvery: 20 * time.Second, visit: 1000, ckptInterval: "2s",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to the smoke-test size: 8 tenants at most.
func (w workload) quick() workload {
	if w.tenants > 8 {
		w.tenants = 8
	}
	return w
}

// perTenant returns how many records each tenant receives in a run of
// the given length. With visits, every tenant gets the same whole number
// of visits, so the tenants of one stream class see identical input and
// share one reference.
func (w workload) perTenant(seconds int) int {
	perConn := w.ratePerConn * seconds
	tenantsPerConn := w.tenants / w.conns
	if w.visit == 0 {
		return perConn / tenantsPerConn
	}
	return perConn / (tenantsPerConn * w.visit) * w.visit
}

// tenantID and tenantToken name tenant i in the roster.
func tenantID(i int) string    { return fmt.Sprintf("home-%03d", i) }
func tenantToken(i int) string { return fmt.Sprintf("tok-%03d", i) }

// recStream is one class's traffic as wire records. It wraps: record i
// beyond the end replays record i%n with its timestamp moved forward by
// whole spans, so stream time stays monotonic however long a run is
// (the rebase used by the repo's hot-path benchmarks).
type recStream struct {
	times []int64  // capture time of each record, unix nanoseconds
	data  [][]byte // encoded frame of each record
	span  int64    // rebase step: last-first plus burst slack
}

func (s *recStream) at(i int) (ts int64, data []byte) {
	n := len(s.times)
	return s.times[i%n] + int64(i/n)*s.span, s.data[i%n]
}

// genStream synthesizes one class stream. The seed feeds only the
// testbed generator: the same seed gives byte-identical records.
func genStream(w workload, seed int64) (*recStream, error) {
	tb := testbed.New()
	g := testbed.NewGenerator(tb, seed)
	end := streamStart.Add(time.Duration(w.streamHours) * time.Hour)
	var parts [][]*netparse.Packet
	var devs []*testbed.DeviceProfile
	for _, name := range simDevices {
		d := tb.Device(name)
		if d == nil {
			return nil, fmt.Errorf("testbed has no device %q", name)
		}
		devs = append(devs, d)
		parts = append(parts,
			g.BootstrapDNS(d, streamStart.Add(-time.Minute)),
			g.PeriodicWindow(d, streamStart, end))
	}
	// User activities cycle devices, then each device's activities.
	for k := 0; ; k++ {
		at := streamStart.Add(time.Duration(k)*w.actEvery + 7*time.Second)
		if !at.Before(end) {
			break
		}
		d := devs[k%len(devs)]
		act := &d.Activities[(k/len(devs))%len(d.Activities)]
		parts = append(parts, g.Activity(d, act, at, k))
	}
	recs, err := datasets.EncodePackets(testbed.MergePackets(parts...))
	if err != nil {
		return nil, err
	}
	s := &recStream{times: make([]int64, len(recs)), data: make([][]byte, len(recs))}
	for i, r := range recs {
		s.times[i] = r.Time.UnixNano()
		s.data[i] = r.Data
	}
	s.span = s.times[len(s.times)-1] - s.times[0] + int64(2*time.Second)
	return s, nil
}
