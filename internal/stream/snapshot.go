package stream

import (
	"fmt"
	"sort"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/snapio"
)

// monitorSnapVersion guards the streaming-state wire format (version 2
// carries the periodic timer anchors).
const monitorSnapVersion = 2

func sortedMonitorKeys[V any](m map[flows.GroupKey]V) []flows.GroupKey {
	keys := make([]flows.GroupKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.Proto < b.Proto
	})
	return keys
}

// encodeTimes writes a group-keyed time map in sorted key order.
func encodeTimes(w *snapio.Writer, times map[flows.GroupKey]time.Time) {
	keys := sortedMonitorKeys(times)
	w.Uint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k.Device)
		w.String(k.Domain)
		w.String(k.Proto)
		w.Time(times[k])
	}
}

// decodeTimes reads a map written by encodeTimes; check r.Err() after.
func decodeTimes(r *snapio.Reader) map[flows.GroupKey]time.Time {
	times := map[flows.GroupKey]time.Time{}
	n := r.Length(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := flows.GroupKey{Device: r.String(), Domain: r.String(), Proto: r.String()}
		t := r.Time()
		if r.Err() == nil {
			times[k] = t
		}
	}
	return times
}

// MarshalState serializes everything the monitor mutates: stream clock,
// still-pending bursts, the open user trace, silence-timer state, the
// periodic classifier's timer anchors, all counters, and the assembler's
// open flows plus learned resolver entries. The trained models are not
// included: nothing writes them after training, so a restored monitor
// runs over the same pipeline (core.MarshalPipeline bytes) unchanged.
// Bytes are deterministic: all maps are written in sorted order.
func (m *Monitor) MarshalState() []byte {
	var w snapio.Writer
	w.U8(monitorSnapVersion)
	w.Time(m.clock)

	w.Uint(uint64(len(m.pending)))
	for _, f := range m.pending {
		flows.EncodeFlow(&w, f)
	}

	w.Strings(m.trace)
	w.Time(m.traceStart)
	w.Time(m.lastUser)

	encodeTimes(&w, m.lastSeen)
	sil := sortedMonitorKeys(m.silenced)
	w.Uint(uint64(len(sil)))
	for _, k := range sil {
		w.String(k.Device)
		w.String(k.Domain)
		w.String(k.Proto)
		w.Bool(m.silenced[k])
	}
	encodeTimes(&w, m.pipe.Periodic.Anchors())

	w.I64(m.stats.Packets)
	w.I64(m.stats.Flows)
	w.I64(m.stats.Periodic)
	w.I64(m.stats.User)
	w.I64(m.stats.Aperiodic)
	w.I64(m.stats.Deviations)
	w.I64(m.stats.Traces)
	w.I64(m.stats.ParseErrors)
	classes := make([]string, 0, len(m.stats.ParseErrorsByClass))
	for c := range m.stats.ParseErrorsByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	w.Uint(uint64(len(classes)))
	for _, c := range classes {
		w.String(c)
		w.I64(m.stats.ParseErrorsByClass[c])
	}
	w.I64(m.stats.LateDropped)

	m.assembler.EncodeState(&w)
	return w.Bytes()
}

// UnmarshalState restores streaming state written by MarshalState into a
// monitor freshly constructed over the same trained pipeline and
// configuration; the restored timer anchors replace the ones the fork
// copied. On error the monitor must be discarded (it may be partially
// restored); callers fall back to a fresh monitor or an older store
// generation.
func (m *Monitor) UnmarshalState(data []byte) error {
	r := snapio.NewReader(data)
	if v := r.U8(); v != monitorSnapVersion && r.Err() == nil {
		return fmt.Errorf("monitor snapshot version %d (want %d)", v, monitorSnapVersion)
	}
	clock := r.Time()

	var pending []*flows.Flow
	n := r.Length(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		f := flows.DecodeFlow(r)
		if f == nil {
			return r.Err()
		}
		pending = append(pending, f)
	}

	trace := r.Strings()
	traceStart := r.Time()
	lastUser := r.Time()

	lastSeen := decodeTimes(r)
	silenced := map[flows.GroupKey]bool{}
	n = r.Length(4)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := flows.GroupKey{Device: r.String(), Domain: r.String(), Proto: r.String()}
		v := r.Bool()
		if r.Err() == nil {
			silenced[k] = v
		}
	}
	anchors := decodeTimes(r)

	var stats Stats
	stats.Packets = r.I64()
	stats.Flows = r.I64()
	stats.Periodic = r.I64()
	stats.User = r.I64()
	stats.Aperiodic = r.I64()
	stats.Deviations = r.I64()
	stats.Traces = r.I64()
	stats.ParseErrors = r.I64()
	n = r.Length(2)
	for i := 0; i < n && r.Err() == nil; i++ {
		c := r.String()
		v := r.I64()
		if r.Err() == nil {
			if stats.ParseErrorsByClass == nil {
				stats.ParseErrorsByClass = map[string]int64{}
			}
			stats.ParseErrorsByClass[c] = v
		}
	}
	stats.LateDropped = r.I64()

	m.assembler.DecodeState(r)
	if err := r.Err(); err != nil {
		return err
	}
	if rem := r.Remaining(); rem != 0 {
		return fmt.Errorf("monitor snapshot has %d trailing bytes", rem)
	}

	m.clock = clock
	m.pending = nil
	m.hold(pending)
	m.trace = trace
	m.traceStart = traceStart
	m.lastUser = lastUser
	m.lastSeen = lastSeen
	m.silenced = silenced
	m.pipe.Periodic.SetAnchors(anchors)
	m.stats = stats
	// The silence-gate cache describes the pre-restore group maps; zero
	// forces the next check to rescan and recompute it.
	m.nextSilence = time.Time{}
	m.silenceIdle = false
	return nil
}
