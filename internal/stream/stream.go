// Package stream provides online (streaming) BehavIoT monitoring: packets
// arrive one at a time, flows are assembled incrementally, events are
// classified as their bursts close, and deviation metrics are evaluated
// continuously with count-up timers — the deployment mode the paper
// sketches for anomaly detection at a home gateway (§7.2).
//
// The Monitor is single-goroutine-owned: feed it packets from one
// goroutine and read events/deviations from the callbacks it invokes
// inline. Wrap it with a channel pump (see cmd/behaviotd) for concurrent
// producers.
package stream

import (
	"sort"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/flows"
	"behaviot/internal/netparse"
	"behaviot/internal/pfsm"
)

// Event re-exports the pipeline event for subscribers.
type Event = core.Event

// Deviation re-exports the pipeline deviation for subscribers.
type Deviation = core.Deviation

// flushAfter closes a flow burst that has been quiet this long; it must
// exceed the assembler's burst gap (flows.DefaultBurstGap), so late
// packets cannot reopen a burst once it is classified.
const flushAfter = 5 * time.Second

// silenceFactor raises a periodic silent-group deviation when a modeled
// group has been quiet for silenceFactor × period: the paper's T0 = 5T
// threshold.
const silenceFactor = 5

// Config tunes the online monitor.
type Config struct {
	// MaxSkew, when positive, drops packets whose timestamp lags
	// stream time by more than this (counted in Stats.LateDropped):
	// a guard against clock-skewed or badly reordered captures
	// dragging ancient packets into live flow state. Zero accepts
	// any lag (the historical behavior).
	MaxSkew time.Duration
	// RecycleFlows returns classified flow bursts to the assembler's
	// freelist after OnEvent runs, so steady-state ingest reuses flow
	// storage instead of allocating per burst. Enable only when OnEvent
	// subscribers do not retain e.Flow (or anything reachable from it,
	// like the Packets slice) past the callback's return.
	RecycleFlows bool
	// OnEvent, if set, receives every classified event.
	OnEvent func(Event)
	// OnDeviation, if set, receives every significant deviation.
	OnDeviation func(Deviation)
}

// Monitor consumes a packet stream and emits events and deviations.
type Monitor struct {
	cfg       Config
	pipe      *core.Pipeline // this monitor's fork: shared models, own timer anchors
	assembler *flows.Assembler
	clock     time.Time // stream time = max packet timestamp seen

	// Pending flows not yet old enough to flush. minPendingEnd is the
	// smallest End among them (meaningless while pending is empty): a
	// closed burst's End never changes, so until stream time passes
	// minPendingEnd+flushAfter no pending flow can be due and drain
	// skips its walk.
	pending       []*flows.Flow
	minPendingEnd time.Time

	// Open user-event trace.
	trace      pfsm.Trace
	traceStart time.Time
	lastUser   time.Time

	// lastSeen tracks per-group last periodic event for silence alarms;
	// silenced marks groups already alarmed (re-armed when they recover).
	lastSeen map[flows.GroupKey]time.Time
	silenced map[flows.GroupKey]bool

	// nextSilence is a conservative lower bound on the earliest stream
	// time any silence alarm can fire (zero = unknown, scan on the next
	// check); silenceIdle short-circuits the check entirely while no
	// group is armed. Both exist so checkSilence does not walk the
	// group maps on every packet — a periodic event moves only its own
	// group's deadline, so classify lowers the bound instead of
	// discarding it.
	nextSilence time.Time
	silenceIdle bool

	// Counters.
	stats Stats

	// pkt is the one packet FeedRecord decodes into; its Payload borrows
	// the caller's record bytes only for the duration of the call.
	pkt netparse.Packet
}

// Stats summarizes the monitor's activity, including the ingest-health
// counters that let a lossy capture degrade into metrics instead of a
// crash.
type Stats struct {
	Packets    int64
	Flows      int64
	Periodic   int64
	User       int64
	Aperiodic  int64
	Deviations int64
	Traces     int64
	StreamTime time.Time

	// ParseErrors counts frames FeedRecord could not decode;
	// ParseErrorsByClass splits them by netparse error class.
	ParseErrors        int64
	ParseErrorsByClass map[string]int64
	// LateDropped counts packets rejected by the MaxSkew gate.
	LateDropped int64
}

// NewMonitor wraps a trained pipeline and an assembler configuration for
// online monitoring. The monitor never writes to pipe: it classifies
// over pipe.Fork(), which shares the trained models and starts from a
// copy of pipe's timer anchors. Any number of monitors, on any
// goroutines, may therefore share one pipeline that nothing else writes.
func NewMonitor(pipe *core.Pipeline, acfg flows.Config, cfg Config) *Monitor {
	return &Monitor{
		cfg:       cfg,
		pipe:      pipe.Fork(),
		assembler: flows.NewAssembler(acfg),
		lastSeen:  map[flows.GroupKey]time.Time{},
		silenced:  map[flows.GroupKey]bool{},
	}
}

// Feed processes one packet. Packets should arrive in roughly
// non-decreasing time order (gateway capture order); stream time only
// moves forward, and packets lagging it by more than MaxSkew are
// dropped and counted rather than replayed into live flow state.
func (m *Monitor) Feed(p *netparse.Packet) {
	if p == nil {
		return
	}
	if m.cfg.MaxSkew > 0 && m.clock.Sub(p.Timestamp) > m.cfg.MaxSkew {
		m.stats.LateDropped++
		return
	}
	m.stats.Packets++
	if p.Timestamp.After(m.clock) {
		m.clock = p.Timestamp
	}
	m.assembler.Add(p)
	// Collect bursts whose burst gap has passed; hold them until
	// flushAfter so late packets cannot reopen them.
	m.hold(m.assembler.FlushClosed(m.clock))
	m.drain(false)
	m.checkSilence()
}

// Tick advances stream time without a packet (e.g. from a wall-clock
// timer during total silence) and re-evaluates timers.
func (m *Monitor) Tick(now time.Time) {
	if now.After(m.clock) {
		m.clock = now
	}
	m.hold(m.assembler.FlushClosed(m.clock))
	m.drain(false)
	m.checkSilence()
}

// Close flushes everything pending and closes the open trace.
func (m *Monitor) Close() {
	m.hold(m.assembler.Flows())
	m.drain(true)
	m.closeTrace()
}

// FeedRecord decodes one wire-format capture record and feeds it.
// Malformed frames are not fatal: they increment the per-class parse
// error counters and are otherwise ignored, which is what lets the
// monitor ride out a corrupted or truncated capture (§7.2's gateway
// deployment never gets pristine input). data is only borrowed: nothing
// aliases it once FeedRecord returns.
func (m *Monitor) FeedRecord(ts time.Time, data []byte) {
	p := &m.pkt
	if err := netparse.DecodeInto(p, data); err != nil {
		m.stats.ParseErrors++
		if m.stats.ParseErrorsByClass == nil {
			m.stats.ParseErrorsByClass = map[string]int64{}
		}
		m.stats.ParseErrorsByClass[netparse.ErrorClass(err)]++
		return
	}
	p.Timestamp = ts
	m.Feed(p)
	p.Payload = nil
}

// Stats returns a snapshot of the monitor's counters.
func (m *Monitor) Stats() Stats {
	s := m.stats
	s.StreamTime = m.clock
	if m.stats.ParseErrorsByClass != nil {
		s.ParseErrorsByClass = make(map[string]int64, len(m.stats.ParseErrorsByClass))
		for k, v := range m.stats.ParseErrorsByClass {
			s.ParseErrorsByClass[k] = v
		}
	}
	return s
}

// hold appends closed bursts to pending, keeping minPendingEnd current.
func (m *Monitor) hold(fs []*flows.Flow) {
	for _, f := range fs {
		if len(m.pending) == 0 || f.End.Before(m.minPendingEnd) {
			m.minPendingEnd = f.End
		}
		m.pending = append(m.pending, f)
	}
}

// drain classifies pending flows older than flushAfter (or all of them
// when force is set), in pending order. The walk is skipped while even
// the oldest pending flow is too young, which is every packet but the
// few on which something is actually due.
func (m *Monitor) drain(force bool) {
	if len(m.pending) == 0 || (!force && m.clock.Sub(m.minPendingEnd) < flushAfter) {
		return
	}
	keep := m.pending[:0]
	for _, f := range m.pending {
		if !force && m.clock.Sub(f.End) < flushAfter {
			if len(keep) == 0 || f.End.Before(m.minPendingEnd) {
				m.minPendingEnd = f.End
			}
			keep = append(keep, f)
			continue
		}
		m.classify(f)
	}
	m.pending = keep
}

// classify runs the pipeline on one closed burst and routes the event.
func (m *Monitor) classify(f *flows.Flow) {
	m.stats.Flows++
	e := m.pipe.ClassifyOne(f)
	switch e.Class {
	case core.EventPeriodic:
		m.stats.Periodic++
		key := f.Key()
		model := m.pipe.Periodic.Models()[key]
		// Periodic-event deviation on arrival.
		if prev, ok := m.lastSeen[key]; ok && model != nil {
			score := core.PeriodicDeviationMetric(e.Time.Sub(prev).Seconds(), model.Period)
			if score > m.pipe.PeriodicThreshold() {
				m.emitDeviation(core.Deviation{
					Kind: core.DevPeriodic, Time: e.Time, Score: score,
					Device: e.Device, Detail: model.String(),
				})
			}
		}
		m.lastSeen[key] = e.Time
		m.silenced[key] = false
		// Only this group's silence deadline moved, so the cached bound
		// stays a lower bound on every armed deadline once it is no later
		// than the new one. An unknown bound (zero, not idle) stays
		// unknown: the next check rescans anyway.
		if model != nil && model.Period > 0 {
			deadline := silenceDeadline(e.Time, model.Period)
			if m.silenceIdle || (!m.nextSilence.IsZero() && deadline.Before(m.nextSilence)) {
				m.nextSilence = deadline
			}
			m.silenceIdle = false
		}
	case core.EventUser:
		m.stats.User++
		m.extendTrace(e)
	default:
		m.stats.Aperiodic++
	}
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(e)
	}
	// A quiet gap after the last user event closes the trace.
	if len(m.trace) > 0 && m.clock.Sub(m.lastUser) > m.pipe.TraceGap {
		m.closeTrace()
	}
	if m.cfg.RecycleFlows {
		m.assembler.Recycle(f)
	}
}

// extendTrace appends a user event to the open trace, closing the
// previous trace when the gap is exceeded. The gap is the one the
// pipeline was trained with, so the monitor cuts traces exactly where
// Pipeline.EventTraces does.
func (m *Monitor) extendTrace(e core.Event) {
	if len(m.trace) > 0 && e.Time.Sub(m.lastUser) > m.pipe.TraceGap {
		m.closeTrace()
	}
	if len(m.trace) == 0 {
		m.traceStart = e.Time
	}
	m.trace = append(m.trace, e.Label)
	m.lastUser = e.Time
}

// closeTrace evaluates the short-term metric on the completed trace.
func (m *Monitor) closeTrace() {
	if len(m.trace) == 0 {
		return
	}
	tr := m.trace
	m.trace = nil
	m.stats.Traces++
	if m.pipe.System == nil || m.pipe.Baseline == nil {
		return
	}
	for _, d := range m.pipe.ShortTermDeviations([]pfsm.Trace{tr}, m.lastUser) {
		m.emitDeviation(d)
	}
}

// checkSilence raises count-up-timer alarms for modeled groups that have
// gone quiet (T0 > silenceFactor × period). Fired alarms are sorted
// before emission: the scan walks a map, and emission order must not
// depend on the per-process hash seed (deviation logs are diffed in
// restore-equivalence tests and snapshot bytes include the counter).
//
// The group maps are only walked when some alarm can actually fire: the
// scan records the earliest armed deadline (classify lowers it when a
// periodic event arms an earlier one), and until stream time reaches it
// the per-packet call returns immediately. The bound may go stale-early
// — the group that set it has since been seen again — which costs one
// fruitless rescan, never a late alarm. The cached deadline truncates
// toward zero, so the gate re-scans at or before the float threshold an
// alarm is compared against — an alarm fires on exactly the packet it
// always did.
func (m *Monitor) checkSilence() {
	if m.silenceIdle || (!m.nextSilence.IsZero() && m.clock.Before(m.nextSilence)) {
		return
	}
	var fired []core.Deviation
	var next time.Time
	for key, last := range m.lastSeen {
		if m.silenced[key] {
			continue
		}
		model := m.pipe.Periodic.Models()[key]
		if model == nil || model.Period <= 0 {
			continue
		}
		elapsed := m.clock.Sub(last).Seconds()
		if elapsed > silenceFactor*model.Period {
			m.silenced[key] = true
			fired = append(fired, core.Deviation{
				Kind:   core.DevPeriodic,
				Time:   m.clock,
				Score:  core.PeriodicDeviationMetric(elapsed, model.Period),
				Device: key.Device,
				Detail: model.String() + " (silent)",
			})
			continue
		}
		deadline := silenceDeadline(last, model.Period)
		if next.IsZero() || deadline.Before(next) {
			next = deadline
		}
	}
	m.nextSilence = next
	m.silenceIdle = next.IsZero()
	if len(fired) > 1 {
		sort.Slice(fired, func(i, j int) bool {
			if fired[i].Device != fired[j].Device {
				return fired[i].Device < fired[j].Device
			}
			return fired[i].Detail < fired[j].Detail
		})
	}
	for _, d := range fired {
		m.emitDeviation(d)
	}
}

// silenceDeadline is the gate's view of when a group last seen at last
// can first alarm. It truncates toward zero, so it is never later than
// the float threshold checkSilence compares elapsed time against.
func silenceDeadline(last time.Time, period float64) time.Time {
	return last.Add(time.Duration(silenceFactor * period * float64(time.Second)))
}

func (m *Monitor) emitDeviation(d core.Deviation) {
	m.stats.Deviations++
	if m.cfg.OnDeviation != nil {
		m.cfg.OnDeviation(d)
	}
}
