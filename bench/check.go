package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// boundaryNames maps the /status fields read at the daemon's layer
// boundaries to the per-layer metrics they are reported as.
var boundaryNames = map[string]string{
	"queue_waits":               "fleet.tenant.queue_waits",
	"queue_shed":                "fleet.tenant.queue_shed",
	"parse_errors":              "fleet.tenant.parse_errors",
	"late_dropped":              "fleet.tenant.late_dropped",
	"checkpoints_total":         "modelstore.checkpoints_total",
	"checkpoint_fulls_total":    "modelstore.fulls_total",
	"checkpoint_deltas_total":   "modelstore.deltas_total",
	"checkpoint_bytes_total":    "modelstore.bytes_total",
	"checkpoint_failures_total": "modelstore.ckpt_failures_total",
}

// boundaryCounts sums those counters over every tenant's /status at end
// of input. The workloads send only valid, in-order records at a rate
// the daemon keeps up with, so a drop of any kind fails the run.
func boundaryCounts(d *daemon, w workload) (map[string]float64, error) {
	out := map[string]float64{}
	for _, name := range boundaryNames {
		out[name] = 0
	}
	for i := 0; i < w.tenants; i++ {
		st, err := d.status(tenantID(i))
		if err != nil {
			return nil, err
		}
		for field, name := range boundaryNames {
			out[name] += st[field]
		}
	}
	if out["fleet.tenant.parse_errors"]+out["fleet.tenant.late_dropped"]+out["fleet.tenant.queue_shed"] > 0 {
		return nil, invalidf("daemon dropped records: %v", out)
	}
	return out, nil
}

// logLine mirrors one JSONL record of a tenant's event log.
type logLine struct {
	Type       string    `json:"type"`
	Time       time.Time `json:"time"`
	Device     string    `json:"device"`
	Label      string    `json:"label"`
	Kind       string    `json:"kind"`
	Detail     string    `json:"detail"`
	Confidence float64   `json:"confidence"`
	Score      float64   `json:"score"`
}

func (l logLine) key() string {
	switch l.Type {
	case "event":
		return eventKey(l.Time, l.Device, l.Label, l.Confidence)
	case "deviation":
		return deviationKey(l.Time, l.Device, l.Kind, l.Detail, l.Score)
	}
	// Anything else (a resume-fallback note, say) has no reference line
	// and so counts as extra.
	return l.Type + "|" + l.Detail
}

// logCheck is the outcome of comparing every tenant's event log with its
// class reference, as multisets of keys.
type logCheck struct {
	refLines   int // lines the reference expects the daemon to be able to write
	missing    int // of those, absent from the logs
	extra      int // log lines the reference does not have
	unloggable int // reference lines no daemon can write (non-finite score)
	examples   []string
}

func checkLogs(dir string, w workload, refs []reference) (logCheck, error) {
	var chk logCheck
	note := func(format string, args ...any) {
		if len(chk.examples) < 10 {
			chk.examples = append(chk.examples, fmt.Sprintf(format, args...))
		}
	}
	for i := 0; i < w.tenants; i++ {
		want := map[string]int{}
		for _, it := range refs[i%w.classes].items {
			if it.unloggable {
				chk.unloggable++
				continue
			}
			want[it.key]++
			chk.refLines++
		}
		lines, err := readLog(filepath.Join(dir, tenantID(i)+".jsonl"))
		if err != nil {
			return chk, fmt.Errorf("tenant %s event log: %w", tenantID(i), err)
		}
		for _, l := range lines {
			if k := l.key(); want[k] > 0 {
				want[k]--
			} else {
				chk.extra++
				note("tenant %s: extra log line %s", tenantID(i), k)
			}
		}
		keys := make([]string, 0, len(want))
		for k, n := range want {
			if n > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			chk.missing += want[k]
			note("tenant %s: missing log line %s", tenantID(i), k)
		}
	}
	return chk, nil
}

func readLog(path string) ([]logLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var l logLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// latencies are the detection latencies of one run.
type latencies struct {
	ms     []float64 // every sample
	missed int       // expected feed items that never arrived
}

// detectLatencies returns, for every reference item the feed delivered,
// arrival time minus the due time of the record whose ingest makes the
// reference emit it. Items of the final flush have no triggering record
// and are left out, as are lines no daemon can encode.
func detectLatencies(w workload, prep *prepared, ps []connPlan, arrived map[string]time.Time) latencies {
	var lat latencies
	for i := 0; i < w.tenants; i++ {
		seen := map[string]bool{}
		for _, it := range prep.refs[i%w.classes].items {
			if it.unloggable || it.trigger >= prep.perTenant || seen[it.key] {
				continue
			}
			seen[it.key] = true
			at, ok := arrived[tapKey(tenantID(i), it.key)]
			if !ok {
				lat.missed++
				continue
			}
			c, j := connIndex(w, prep.perTenant, i, it.trigger)
			lat.ms = append(lat.ms, float64(at.Sub(ps[c].pace.due(j)))/1e6)
		}
	}
	return lat
}
