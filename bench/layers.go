package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/fleet"
	"behaviot/internal/fleet/listener"
	"behaviot/internal/flows"
	"behaviot/internal/modelstore"
	"behaviot/internal/netparse"
	"behaviot/internal/snapio"
	"behaviot/internal/stats"
	"behaviot/internal/stream"
)

// The traced run measures every layer from outside, through its public
// functions, on the workload's own records. Spans are kept in memory and
// written out once at the end. The box this runs on is shared and its
// speed wanders by several percent within seconds, so a layer's number
// is the median over its blocks, never a sum.
const (
	traceBlock = 4096 // records per span
	// layerBlocks caps the blocks each in-process pass replays, so a
	// traced run costs about as much as an untraced one.
	layerBlocks   = 72
	storeGens     = 8 // one full generation plus seven deltas, as -store-full-every 8 writes them
	pacedQueueFor = time.Second
	repeats       = 5 // timed repetitions of a one-shot operation; the median is reported
)

// span is one timed call into a layer over one block of records. Parent
// is the index of the span that caused it, -1 for a root; Count is the
// number of units of work (records, flows, traces) it covered.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Count   int    `json:"count"`
}

// tracer records spans. A nil tracer records nothing and reads no clock:
// the same pass run with and without one gives the tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id, count int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.spans[id].Count = count
}

// layerStats summarises the spans of one name. Self time is a span's
// duration minus the duration of its child spans.
type layerStats struct {
	selfNS []float64 // per span
	durNS  []float64 // per span
	units  []float64 // per span: self time per unit of work, spans with no work left out
	count  int       // units of work in all spans
}

func (t *tracer) stats() map[string]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		dur := float64(s.EndNS - s.StartNS)
		self := dur - float64(child[i])
		st.durNS = append(st.durNS, dur)
		st.selfNS = append(st.selfNS, self)
		if s.Count > 0 {
			st.units = append(st.units, self/float64(s.Count))
		}
		st.count += s.Count
	}
	return out
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layerSnap is a tenant's checkpoint content at one point of a pass.
type layerSnap struct{ pipe, mon []byte }

// layeredPass replays whole blocks of the stream, each first through a
// stream.Monitor and then through the layers the monitor is made of, one
// public call at a time. The piecewise spans are recorded as children of
// the block's monitor span, so the monitor's self time is what its Feed
// costs beyond assembly, classification and scoring. It returns every
// block's wall time and the pipeline and monitor state at storeGens
// evenly spaced points.
func layeredPass(tr *tracer, prep *prepared, s *recStream, blocks int) ([]float64, []layerSnap, error) {
	monPipe, err := core.UnmarshalPipeline(prep.pipeSnap)
	if err != nil {
		return nil, nil, err
	}
	pipe, err := core.UnmarshalPipeline(prep.pipeSnap)
	if err != nil {
		return nil, nil, err
	}
	mon := stream.NewMonitor(monPipe, prep.acfg, stream.Config{RecycleFlows: true})
	asm := flows.NewAssembler(prep.acfg)
	pkts := make([]*netparse.Packet, traceBlock)
	for i := range pkts {
		pkts[i] = new(netparse.Packet)
	}
	var closed, rest []*flows.Flow
	var user []core.Event
	var out []layerSnap
	wall := make([]float64, 0, blocks)
	runtime.GC()
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		block := tr.begin("block", "bench", -1)

		id := tr.begin("netparse.decode", "netparse", block)
		for i, p := range pkts {
			ts, data := s.at(b*traceBlock + i)
			if err := netparse.DecodeInto(p, data); err != nil {
				return nil, nil, fmt.Errorf("record %d: %w", b*traceBlock+i, err)
			}
			p.Timestamp = time.Unix(0, ts)
		}
		tr.end(id, traceBlock)

		feed := tr.begin("stream.monitor.feed", "stream", block)
		for _, p := range pkts {
			mon.Feed(p)
		}
		tr.end(feed, traceBlock)

		id = tr.begin("flows.assemble", "flows", feed)
		closed = closed[:0]
		for _, p := range pkts {
			asm.Add(p)
			closed = append(closed, asm.FlushClosed(p.Timestamp)...)
		}
		tr.end(id, traceBlock)

		id = tr.begin("core.classify_periodic", "core", feed)
		rest = rest[:0]
		for _, f := range closed {
			if !pipe.Periodic.Classify(f) {
				rest = append(rest, f)
			}
		}
		tr.end(id, len(closed))

		id = tr.begin("core.classify_user", "core", feed)
		user = user[:0]
		for _, f := range rest {
			if label, conf, ok := pipe.UserAction.Classify(f); ok {
				user = append(user, core.Event{
					Class: core.EventUser, Device: f.Device, Label: label, Time: f.Start, Confidence: conf,
				})
			}
		}
		tr.end(id, len(rest))

		id = tr.begin("flows.recycle", "flows", feed)
		for _, f := range closed {
			asm.Recycle(f)
		}
		tr.end(id, len(closed))

		// One block's user events are scored as the traces they form; the
		// monitor scores a trace when it closes, at the same cost per event.
		traces := pipe.EventTraces(user)
		id = tr.begin("pfsm.score", "pfsm", feed)
		if len(traces) > 0 {
			pipe.ShortTermDeviations(traces, user[len(user)-1].Time)
		}
		tr.end(id, len(traces))

		tr.end(block, traceBlock)
		wall = append(wall, float64(time.Since(t0)))
		if (b+1)*storeGens/blocks > len(out) {
			out = append(out, layerSnap{core.MarshalPipeline(monPipe), mon.MarshalState()})
		}
	}
	return wall, out, nil
}

// tenantPass feeds whole blocks straight into one in-process fleet
// tenant (decode, queue, monitor, event log when logDir is set) and
// returns the median over blocks of this process's CPU time per record,
// with the event log's lines and bytes.
func tenantPass(prep *prepared, s *recStream, blocks int, logDir string) (cpuNS float64, lines, bytes int, err error) {
	d, err := fleet.New(fleet.Config{
		Shards: 1, PipeSnap: prep.pipeSnap, AssemblerCfg: prep.acfg, EventLogDir: logDir,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer d.Close() //lint:ignore errcheck Close never fails; closed again only on error paths
	t, err := d.Add(tenantID(0), tenantToken(0))
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.GC()
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		cpu0 := selfCPU()
		for i := b * traceBlock; i < (b+1)*traceBlock; i++ {
			ts, data := s.at(i)
			if err := t.IngestRecord(time.Unix(0, ts), data, nil); err != nil {
				return 0, 0, 0, err
			}
		}
		if err := waitTenant(t, (b+1)*traceBlock); err != nil {
			return 0, 0, 0, err
		}
		per = append(per, float64(selfCPU()-cpu0)/traceBlock)
	}
	if err := d.Close(); err != nil {
		return 0, 0, 0, err
	}
	if logDir != "" {
		data, err := os.ReadFile(filepath.Join(logDir, tenantID(0)+".jsonl"))
		if err != nil {
			return 0, 0, 0, err
		}
		bytes = len(data)
		for _, b := range data {
			if b == '\n' {
				lines++
			}
		}
	}
	return stats.Median(per), lines, bytes, nil
}

// waitTenant waits until the tenant's monitor has consumed n packets. It
// sleeps between polls: a spinning wait would bill its own CPU to the
// pass being measured.
func waitTenant(t *fleet.Tenant, n int) error {
	deadline := time.Now().Add(settleTimeout)
	for {
		st := t.Status()
		if st["packets"].(int64) == int64(n) && st["queue_depth"].(int) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("in-process tenant consumed %v of %d records", st["packets"], n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// listenerPass sends whole blocks through an in-process listener.Server
// on a unix socket into one tenant and returns the median CPU per
// record, and the median cost of an empty visit (dial, hello,
// half-close, final ack).
func listenerPass(prep *prepared, s *recStream, blocks int, sock string) (cpuNS, dialUS float64, err error) {
	d, err := fleet.New(fleet.Config{Shards: 1, PipeSnap: prep.pipeSnap, AssemblerCfg: prep.acfg})
	if err != nil {
		return 0, 0, err
	}
	defer d.Close() //lint:ignore errcheck Close never fails
	t, err := d.Add(tenantID(0), tenantToken(0))
	if err != nil {
		return 0, 0, err
	}
	l, err := net.Listen("unix", sock)
	if err != nil {
		return 0, 0, err
	}
	srv := listener.New(d)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close() //lint:ignore errcheck Close never fails
		<-served
	}()

	ic, err := dialIngest(sock, tenantID(0), tenantToken(0), visitTimeout)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	per := make([]float64, 0, blocks)
	var wire []byte
	for b := 0; b < blocks; b++ {
		// Frames are built before the clock starts: the sender's share of
		// the measured time is the socket write alone.
		wire = wire[:0]
		for i := b * traceBlock; i < (b+1)*traceBlock; i++ {
			ts, data := s.at(i)
			wire = appendFrame(wire, ts, data)
		}
		cpu0 := selfCPU()
		if _, err := ic.c.Write(wire); err != nil {
			ic.abort()
			return 0, 0, err
		}
		if err := waitTenant(t, (b+1)*traceBlock); err != nil {
			ic.abort()
			return 0, 0, err
		}
		per = append(per, float64(selfCPU()-cpu0)/traceBlock)
	}
	consumed, err := ic.finish()
	if err != nil {
		return 0, 0, err
	}
	if consumed != int64(blocks*traceBlock) {
		return 0, 0, fmt.Errorf("in-process listener acked %d of %d records", consumed, blocks*traceBlock)
	}

	dials := make([]float64, 0, 50)
	for i := 0; i < cap(dials); i++ {
		t0 := time.Now()
		ic, err := dialIngest(sock, tenantID(0), tenantToken(0), visitTimeout)
		if err != nil {
			return 0, 0, err
		}
		if _, err := ic.finish(); err != nil {
			return 0, 0, err
		}
		dials = append(dials, float64(time.Since(t0))/1e3)
	}
	return stats.Median(per), stats.Median(dials), nil
}

// queuePasses measures stream.Queue alone, with a sink that only counts:
// saturated (median wall time per record of closed-loop blocks) and paced
// (CPU per record at 100 records per 1 ms tick, where every tick wakes
// the consumer goroutine — the cost a saturated benchmark hides).
func queuePasses(blocks int) (handoffNS, pacedCPUNS float64, err error) {
	p := new(netparse.Packet)
	sunk := 0
	q := stream.NewBatchQueue(1024, 64, func(ps []*netparse.Packet) { sunk += len(ps) })
	per := make([]float64, 0, blocks)
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		for i := 0; i < traceBlock; i++ {
			q.Feed(p)
		}
		q.Flush()
		per = append(per, float64(time.Since(t0))/traceBlock)
	}
	q.Close()
	if sunk != blocks*traceBlock {
		return 0, 0, fmt.Errorf("queue sank %d of %d packets", sunk, blocks*traceBlock)
	}

	const perTick = 100
	q = stream.NewBatchQueue(1024, 64, func(ps []*netparse.Packet) {})
	defer q.Close()
	pace := pacer{t0: time.Now(), rate: perTick * int(time.Second/tick)}
	cpu0 := selfCPU()
	fed := 0
	for end := pace.t0.Add(pacedQueueFor); time.Now().Before(end); {
		for i := 0; i < perTick; i++ {
			q.Feed(p)
		}
		fed += perTick
		time.Sleep(time.Until(pace.nextTick(time.Now())))
	}
	q.Flush()
	return stats.Median(per), float64(selfCPU()-cpu0) / float64(fed), nil
}

// timeMedian runs f repeats times and returns the median wall time in
// milliseconds.
func timeMedian(f func() error) (float64, error) {
	ms := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return stats.Median(ms), nil
}

// snapshotLayers times the checkpoint path's pieces on the states the
// layered pass captured: marshal and unmarshal, diff and patch, and
// modelstore writes and the chained load of one full generation plus
// its deltas.
func snapshotLayers(prep *prepared, snaps []layerSnap, dir string, m map[string]metric) error {
	if len(snaps) != storeGens {
		return fmt.Errorf("layered pass captured %d snapshots, want %d", len(snaps), storeGens)
	}
	last, prev := snaps[len(snaps)-1], snaps[len(snaps)-2]
	pipe, err := core.UnmarshalPipeline(last.pipe)
	if err != nil {
		return err
	}
	mon := stream.NewMonitor(pipe, prep.acfg, stream.Config{})
	if err := mon.UnmarshalState(last.mon); err != nil {
		return err
	}
	ms, err := timeMedian(func() error { core.MarshalPipeline(pipe); return nil })
	if err != nil {
		return err
	}
	m["core.snapshot.marshal_ms"] = metric{ms, "ms"}
	m["core.snapshot.bytes"] = metric{float64(len(last.pipe)), "B"}
	ms, err = timeMedian(func() error { _, err := core.UnmarshalPipeline(last.pipe); return err })
	if err != nil {
		return err
	}
	m["core.snapshot.unmarshal_ms"] = metric{ms, "ms"}
	ms, err = timeMedian(func() error { mon.MarshalState(); return nil })
	if err != nil {
		return err
	}
	m["stream.snapshot.marshal_us"] = metric{ms * 1e3, "us"}
	m["stream.snapshot.bytes"] = metric{float64(len(last.mon)), "B"}

	var delta []byte
	ms, err = timeMedian(func() error { delta = snapio.Diff(prev.pipe, last.pipe); return nil })
	if err != nil {
		return err
	}
	m["snapio.diff_ms"] = metric{ms, "ms"}
	m["snapio.delta_ratio"] = metric{float64(len(delta)) / float64(len(last.pipe)), "ratio"}
	ms, err = timeMedian(func() error { _, err := snapio.Patch(prev.pipe, delta); return err })
	if err != nil {
		return err
	}
	m["snapio.patch_ms"] = metric{ms, "ms"}

	const fp = "bench"
	opts := modelstore.Options{FullEvery: storeGens, Retain: storeGens}
	st, err := modelstore.Open(dir, opts)
	if err != nil {
		return err
	}
	var fullMS float64
	var deltaMS []float64
	for i, sn := range snaps {
		t0 := time.Now()
		if _, err := st.Write(fp, map[string][]byte{
			modelstore.FilePipeline: sn.pipe, modelstore.FileMonitor: sn.mon,
		}); err != nil {
			return err
		}
		took := float64(time.Since(t0)) / 1e6
		if i == 0 {
			fullMS = took
		} else {
			deltaMS = append(deltaMS, took)
		}
	}
	ws := st.Stats()
	if ws.Fulls != 1 || ws.Deltas != storeGens-1 {
		return fmt.Errorf("store wrote %d full and %d delta generations, want 1 and %d", ws.Fulls, ws.Deltas, storeGens-1)
	}
	m["modelstore.write_full_ms"] = metric{fullMS, "ms"}
	m["modelstore.write_delta_ms"] = metric{stats.Median(deltaMS), "ms"}
	m["modelstore.bytes_per_gen_full"] = metric{float64(ws.FullBytes), "B"}
	m["modelstore.bytes_per_gen_delta"] = metric{float64(ws.DeltaBytes) / float64(ws.Deltas), "B"}
	ms, err = timeMedian(func() error {
		fresh, err := modelstore.Open(dir, opts)
		if err != nil {
			return err
		}
		snap, err := fresh.Load(fp)
		if err != nil {
			return err
		}
		if snap.Generation != storeGens {
			return fmt.Errorf("store loaded generation %d, want %d", snap.Generation, storeGens)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["modelstore.load_ms"] = metric{ms, "ms"}
	return nil
}

// registryLayers times adding a tenant to an in-process fleet: fresh
// (a private pipeline copy from the fleet snapshot) and resumed from a
// final checkpoint in the tenant's store.
func registryLayers(prep *prepared, s *recStream, dir string, m map[string]metric) error {
	cfg := fleet.Config{
		Shards: 1, PipeSnap: prep.pipeSnap, AssemblerCfg: prep.acfg,
		Fingerprint: "bench", StoreRoot: dir,
	}
	timeAdds := func(d *fleet.Daemon) (float64, []*fleet.Tenant, error) {
		var ms []float64
		var ts []*fleet.Tenant
		for i := 0; i < repeats; i++ {
			t0 := time.Now()
			t, err := d.Add(tenantID(i), tenantToken(i))
			if err != nil {
				return 0, nil, err
			}
			ms = append(ms, float64(time.Since(t0))/1e6)
			ts = append(ts, t)
		}
		return stats.Median(ms), ts, nil
	}
	d, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	addMS, tenants, err := timeAdds(d)
	if err != nil {
		d.Close() //lint:ignore errcheck the Add error is what gets reported
		return err
	}
	// Give every tenant some streaming state, so the restore below reads
	// the checkpoint of a home that has seen traffic.
	const warm = 2000
	for _, t := range tenants {
		for i := 0; i < warm; i++ {
			ts, data := s.at(i)
			if err := t.IngestRecord(time.Unix(0, ts), data, nil); err != nil {
				d.Close() //lint:ignore errcheck the ingest error is what gets reported
				return err
			}
		}
	}
	if err := d.Close(); err != nil { // drains and lands a final checkpoint per tenant
		return err
	}
	cfg.Resume = true
	d, err = fleet.New(cfg)
	if err != nil {
		return err
	}
	defer d.Close() //lint:ignore errcheck Close never fails
	restoreMS, tenants, err := timeAdds(d)
	if err != nil {
		return err
	}
	for _, t := range tenants {
		if st := t.Status(); st["received_records"].(int64) != warm || st["resume_fallbacks_total"].(int64) != 0 {
			return fmt.Errorf("in-process tenant %s did not restore: %v", t.ID, st)
		}
	}
	m["fleet.registry.add_ms"] = metric{addMS, "ms"}
	m["fleet.registry.restore_ms"] = metric{restoreMS, "ms"}
	return nil
}

// traceLayers runs the in-process half of a traced run. It fills in
// perLayerProcNames, among them the budget — the layers' costs for one
// record, summed, against the CPU per record the daemon just showed end
// to end, which the paced phase left in res — and writes the spans to
// tracePath.
func traceLayers(prep *prepared, res *runResult, runDir, tracePath string) error {
	m := res.PerLayer
	s := prep.refs[0].stream
	const blocks = layerBlocks // the stream wraps, so a short run traces as many blocks as a long one
	const n = float64(blocks * traceBlock)
	// The in-process fleet logs through the standard logger; its lines
	// (the unloggable-score warnings, mostly) are not this rig's output.
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)

	// The same pass, same work, without and with a tracer: the difference
	// is what tracing costs.
	offWall, _, err := layeredPass(nil, prep, s, blocks)
	if err != nil {
		return err
	}
	tr := &tracer{t0: time.Now()}
	onWall, snaps, err := layeredPass(tr, prep, s, blocks)
	if err != nil {
		return err
	}
	m["bench.trace_overhead_pct"] = metric{(stats.Median(onWall)/stats.Median(offWall) - 1) * 100, "%"}

	st := tr.stats()
	perRec := func(name string) float64 { return stats.Median(st[name].selfNS) / traceBlock }
	perUnit := func(name string) float64 { return stats.Median(st[name].units) }
	m["netparse.decode_ns_per_rec"] = metric{perRec("netparse.decode"), "ns"}
	m["flows.assemble_ns_per_rec"] = metric{perRec("flows.assemble") + perRec("flows.recycle"), "ns"}
	m["flows.flows_per_krec"] = metric{float64(st["core.classify_periodic"].count) * 1000 / n, "count"}
	m["core.classify_periodic_ns_per_flow"] = metric{perUnit("core.classify_periodic"), "ns"}
	m["core.classify_user_ns_per_flow"] = metric{perUnit("core.classify_user"), "ns"}
	m["core.classify_ns_per_rec"] = metric{perRec("core.classify_periodic") + perRec("core.classify_user"), "ns"}
	m["pfsm.score_us_per_trace"] = metric{perUnit("pfsm.score") / 1e3, "us"}
	m["pfsm.traces"] = metric{float64(st["pfsm.score"].count), "count"}
	m["stream.monitor.feed_ns_per_rec"] = metric{stats.Median(st["stream.monitor.feed"].durNS) / traceBlock, "ns"}
	m["stream.monitor.self_ns_per_rec"] = metric{perRec("stream.monitor.feed"), "ns"}

	handoffNS, pacedNS, err := queuePasses(blocks)
	if err != nil {
		return err
	}
	m["stream.queue.handoff_ns_per_rec"] = metric{handoffNS, "ns"}
	m["stream.queue.paced_cpu_ns_per_rec"] = metric{pacedNS, "ns"}

	bareNS, _, _, err := tenantPass(prep, s, blocks, "")
	if err != nil {
		return err
	}
	loggedNS, lines, logBytes, err := tenantPass(prep, s, blocks, filepath.Join(runDir, "tlogs"))
	if err != nil {
		return err
	}
	m["fleet.tenant.ingest_ns_per_rec"] = metric{loggedNS, "ns"}
	if lines == 0 {
		return fmt.Errorf("in-process tenant logged nothing in %d records", blocks*traceBlock)
	}
	linesPerRec := float64(lines) / n
	m["fleet.eventlog.append_us_per_line"] = metric{(loggedNS - bareNS) / linesPerRec / 1e3, "us"}
	m["fleet.eventlog.lines_per_krec"] = metric{linesPerRec * 1000, "count"}
	m["fleet.eventlog.bytes_per_line"] = metric{float64(logBytes) / float64(lines), "B"}

	viaNS, dialUS, err := listenerPass(prep, s, blocks, filepath.Join(runDir, "l.sock"))
	if err != nil {
		return err
	}
	m["listener.frame_ns_per_rec"] = metric{viaNS - bareNS, "ns"}
	m["listener.dial_us"] = metric{dialUS, "us"}

	if err := snapshotLayers(prep, snaps, filepath.Join(runDir, "lstore"), m); err != nil {
		return err
	}
	if err := registryLayers(prep, s, filepath.Join(runDir, "rstore"), m); err != nil {
		return err
	}

	// The budget, per record sent end to end: framing, decode, the paced
	// queue hand-off, the monitor with its children, event-log appends,
	// connection visits and checkpoints.
	sent := res.Info["records_sent"].Value
	ckptMS := m["modelstore.checkpoints_total"].Value*
		(m["core.snapshot.marshal_ms"].Value+m["stream.snapshot.marshal_us"].Value/1e3) +
		m["modelstore.fulls_total"].Value*m["modelstore.write_full_ms"].Value +
		m["modelstore.deltas_total"].Value*m["modelstore.write_delta_ms"].Value
	explainedNS := m["listener.frame_ns_per_rec"].Value +
		m["netparse.decode_ns_per_rec"].Value +
		m["stream.queue.paced_cpu_ns_per_rec"].Value +
		m["stream.monitor.feed_ns_per_rec"].Value +
		(loggedNS - bareNS) +
		dialUS*1e3*res.Info["visits"].Value/sent +
		ckptMS*1e6/sent
	m["budget.explained_us_per_rec"] = metric{explainedNS / 1e3, "us"}
	m["budget.unexplained_us_per_rec"] = metric{m["bench.e2e_cpu_us_per_rec"].Value - explainedNS/1e3, "us"}

	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(tracePath, data, 0o644)
}
