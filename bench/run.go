package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"behaviot/internal/flows"
	"behaviot/internal/stats"
)

// Validity gates: a run that trips one measured something other than the
// workload it claims, so it prints no numbers and exits 1.
const (
	maxGenLateP99 = 50 * time.Millisecond // the generator kept its schedule
	minRateShare  = 0.99                  // achieved / offered rate
	maxFeedMissed = 0.01                  // share of expected feed items never received
	maxFailShare  = 0.001                 // failed / attempted
)

const (
	feedGrace       = 100 * time.Millisecond // for items already published to reach the tap
	startDelay      = 50 * time.Millisecond  // between arming the connections and t0
	freshSetups     = 2                      // launches timed for setup_s in a full untraced run
	minLatencies    = 100                    // fewer detection latencies than this cannot carry a p75
	defaultSeconds  = 10
	defaultWorkRoot = ".bench_build"
)

// The names a run reports, in step with BENCHMARK.json (a test compares
// them). A traced run reads perLayerRunNames at the daemon's boundaries
// and from the rig itself during the paced phase, and measures
// perLayerProcNames in process afterwards.
var (
	endToEndNames = []string{
		"setup_s", "cpu_us_per_rec", "detect_p50_ms", "detect_p75_ms", "rss_peak_mb", "restart_s",
	}
	perLayerRunNames = []string{
		"fleet.tenant.queue_waits", "fleet.tenant.queue_shed", "fleet.tenant.parse_errors",
		"fleet.tenant.late_dropped", "modelstore.checkpoints_total", "modelstore.fulls_total",
		"modelstore.deltas_total", "modelstore.bytes_total", "modelstore.ckpt_failures_total",
		"fleet.feed.items", "fleet.eventlog.unloggable_lines",
		"bench.detect_p90_ms", "bench.detect_p99_ms", "bench.detect_max_ms", "bench.detect_samples",
		"bench.gen_late_p99_ms", "bench.sse_missed",
		"bench.prep_s", "bench.calib_ns", "bench.calib_drift_pct", "bench.drain_s",
		"bench.e2e_cpu_us_per_rec",
	}
	perLayerProcNames = []string{
		"listener.frame_ns_per_rec", "listener.dial_us", "netparse.decode_ns_per_rec",
		"stream.queue.handoff_ns_per_rec", "stream.queue.paced_cpu_ns_per_rec",
		"flows.assemble_ns_per_rec", "flows.flows_per_krec",
		"core.classify_periodic_ns_per_flow", "core.classify_user_ns_per_flow", "core.classify_ns_per_rec",
		"pfsm.score_us_per_trace", "pfsm.traces",
		"stream.monitor.feed_ns_per_rec", "stream.monitor.self_ns_per_rec",
		"fleet.eventlog.append_us_per_line", "fleet.eventlog.lines_per_krec", "fleet.eventlog.bytes_per_line",
		"fleet.tenant.ingest_ns_per_rec",
		"core.snapshot.marshal_ms", "core.snapshot.bytes", "core.snapshot.unmarshal_ms",
		"stream.snapshot.marshal_us", "stream.snapshot.bytes",
		"snapio.diff_ms", "snapio.delta_ratio", "snapio.patch_ms",
		"modelstore.write_full_ms", "modelstore.write_delta_ms", "modelstore.bytes_per_gen_full",
		"modelstore.bytes_per_gen_delta", "modelstore.load_ms",
		"fleet.registry.add_ms", "fleet.registry.restore_ms",
		"bench.trace_overhead_pct", "budget.explained_us_per_rec", "budget.unexplained_us_per_rec",
	}
)

// checkNames reports metrics that are declared but missing, or reported
// but not declared.
func checkNames(got map[string]metric, want ...[]string) error {
	declared := map[string]bool{}
	for _, names := range want {
		for _, name := range names {
			declared[name] = true
			if _, ok := got[name]; !ok {
				return fmt.Errorf("metric %s was not measured", name)
			}
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is one invocation of one workload.
type runConfig struct {
	root     string // module root, where cmd/behaviotd builds from
	workRoot string // build output and run directories; never the tracked tree
	w        workload
	seed     int64
	seconds  int
	trace    bool
	setups   int // fresh launches timed for setup_s; the last one is measured on
}

// runResult is what a valid run reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Info carries numbers that are neither gated nor layer metrics:
	// sample counts and the parts of composite metrics.
	Info map[string]metric `json:"info"`
}

// invalidf reports a run whose measurements cannot be trusted or whose
// output failed a check.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("invalid run: "+format, args...)
}

// reference is the oracle's expectation for one stream class.
type reference struct {
	stream *recStream
	items  []refItem
}

// prepared is everything a run needs that does not depend on the daemon.
type prepared struct {
	pipeSnap  []byte
	acfg      flows.Config
	refs      []reference // one per stream class
	perTenant int
}

func prepare(cfg runConfig, daemonBin string) (*prepared, error) {
	pipeSnap, err := referencePipeline(cfg.workRoot, daemonBin)
	if err != nil {
		return nil, err
	}
	p := &prepared{pipeSnap: pipeSnap, acfg: assemblerConfig(), perTenant: cfg.w.perTenant(cfg.seconds)}
	if p.perTenant <= 0 {
		return nil, fmt.Errorf("run of %d s is too short for workload %s", cfg.seconds, cfg.w.name)
	}
	for k := 0; k < cfg.w.classes; k++ {
		s, err := genStream(cfg.w, cfg.seed+int64(k))
		if err != nil {
			return nil, err
		}
		items, st, err := replayReference(pipeSnap, p.acfg, s, p.perTenant)
		if err != nil {
			return nil, err
		}
		if st.ParseErrors != 0 || st.LateDropped != 0 {
			return nil, fmt.Errorf("workload %s class %d: reference dropped records (%d parse errors, %d late)",
				cfg.w.name, k, st.ParseErrors, st.LateDropped)
		}
		p.refs = append(p.refs, reference{stream: s, items: items})
	}
	return p, nil
}

// plans lays the workload out over its connections. Connection c serves
// tenants c, c+conns, c+2*conns, ... in rotation, visit records a time.
func plans(w workload, perTenant int, sock string, t0 time.Time, refs []reference) []connPlan {
	tpc := w.tenants / w.conns
	visit := w.visit
	if visit == 0 {
		visit = perTenant
	}
	out := make([]connPlan, w.conns)
	for c := range out {
		out[c] = connPlan{
			sock:  sock,
			pace:  pacer{t0: t0, rate: w.ratePerConn},
			total: perTenant * tpc,
			visit: w.visit,
			route: func(j int) (tenant, idx int) {
				v := j / visit
				return c + (v%tpc)*w.conns, (v/tpc)*visit + j%visit
			},
			stream: func(tenant int) *recStream { return refs[tenant%w.classes].stream },
		}
	}
	return out
}

// connIndex inverts connPlan.route: where on its connection's schedule
// record idx of a tenant sits.
func connIndex(w workload, perTenant, tenant, idx int) (conn, j int) {
	tpc := w.tenants / w.conns
	visit := w.visit
	if visit == 0 {
		visit = perTenant
	}
	return tenant % w.conns, ((idx/visit)*tpc+tenant/w.conns)*visit + idx%visit
}

// freshLaunch starts a daemon over an empty directory and times exec to
// ready.
func freshLaunch(ctx context.Context, bin, dir string, w workload) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	if err := writeRoster(dir, w.tenants); err != nil {
		return nil, 0, err
	}
	d, err := startDaemon(ctx, bin, dir, w, false)
	if err != nil {
		return nil, 0, err
	}
	took, err := d.waitReady()
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, took, nil
}

// pacedPhase is what the rig observed while it drove the daemon.
type pacedPhase struct {
	t0         time.Time
	plans      []connPlan
	lateMS     []float64
	lastSent   time.Time
	visits     int
	cpu0, cpu1 int64 // daemon CPU ticks at ready and once every record was processed
	rssPeakMB  float64
	counts     map[string]float64
	arrived    map[string]time.Time
	feedItems  int
}

// drive sends the workload on its open-loop schedule and waits until
// the daemon has processed every record.
func drive(d *daemon, w workload, prep *prepared) (*pacedPhase, error) {
	feed, err := openFeed(d.http)
	if err != nil {
		return nil, err
	}
	defer feed.close() //lint:ignore errcheck a second close on the error paths; the checked one is below
	ph := &pacedPhase{}
	if ph.cpu0, err = d.cpuTicks(); err != nil {
		return nil, err
	}
	ph.t0 = time.Now().Add(startDelay)
	ph.plans = plans(w, prep.perTenant, filepath.Join(d.dir, sockName), ph.t0, prep.refs)
	results := make([]connResult, len(ph.plans))
	var wg sync.WaitGroup
	for c := range ph.plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[c] = ph.plans[c].run()
		}()
	}
	wg.Wait()
	for c, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("connection %d: %w\ndaemon log:\n%s", c, r.err, d.log())
		}
		for _, ns := range r.lateNS {
			ph.lateMS = append(ph.lateMS, float64(ns)/1e6)
		}
		if r.lastSent.After(ph.lastSent) {
			ph.lastSent = r.lastSent
		}
		ph.visits += r.visits
	}
	if err := d.waitProcessed(int64(prep.perTenant) * int64(w.tenants)); err != nil {
		return nil, fmt.Errorf("%w\ndaemon log:\n%s", err, d.log())
	}
	if ph.cpu1, err = d.cpuTicks(); err != nil {
		return nil, err
	}
	if ph.rssPeakMB, err = d.peakRSSMB(); err != nil {
		return nil, err
	}
	if ph.counts, err = boundaryCounts(d, w); err != nil {
		return nil, err
	}
	time.Sleep(feedGrace)
	ph.arrived, ph.feedItems, err = feed.close()
	return ph, err
}

// runWorkload is the rig: build, deploy, drive, assert, tear down.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	w := cfg.w
	bin, err := buildDaemon(ctx, cfg.root, filepath.Join(cfg.workRoot, "bin"))
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workRoot, "r")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir) //lint:ignore errcheck best-effort removal of a scratch directory

	calibBefore := calibrate()
	tPrep := time.Now()
	prep, err := prepare(cfg, bin)
	if err != nil {
		return nil, err
	}
	prepS := time.Since(tPrep).Seconds()
	sent := int64(prep.perTenant) * int64(w.tenants)

	// Set-up: exec to the "fleet ready" line, training plus tenant adds,
	// timed on every fresh launch; the last launch is then measured on.
	var setups []float64
	var d *daemon
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.kill()
		}
		var took time.Duration
		d, took, err = freshLaunch(ctx, bin, filepath.Join(runDir, fmt.Sprintf("d%d", i)), w)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}

	ph, err := drive(d, w, prep)
	if err != nil {
		return nil, err
	}
	genLateP99 := stats.Percentile(ph.lateMS, 99)
	if genLateP99 > float64(maxGenLateP99)/1e6 {
		return nil, invalidf("generator ran late: p99 %.1f ms behind schedule", genLateP99)
	}
	offered := float64(w.ratePerConn * w.conns)
	achieved := float64(sent) / ph.lastSent.Sub(ph.t0).Seconds()
	if achieved < minRateShare*offered {
		return nil, invalidf("achieved %.0f rec/s of %.0f offered", achieved, offered)
	}

	// Drain: SIGTERM to exit 0 with a drain line that reconciles. An
	// untraced run restarts at once over the same store with -resume and
	// times SIGTERM to ready again; the checks wait until after that, so
	// that none of the rig's own work sits inside restart_s.
	tTerm := time.Now()
	drain, sum, err := d.terminate()
	if err != nil {
		return nil, err
	}
	var resume, restart time.Duration
	if !cfg.trace {
		rd, err := startDaemon(ctx, bin, d.dir, w, true)
		if err != nil {
			return nil, err
		}
		defer rd.kill()
		if resume, err = rd.waitReady(); err != nil {
			return nil, err
		}
		restart = time.Since(tTerm)
		for i := 0; i < w.tenants; i++ {
			st, err := rd.status(tenantID(i))
			if err != nil {
				return nil, err
			}
			if int(st["received_records"]) != prep.perTenant || st["resume_fallbacks_total"] > 0 {
				return nil, invalidf("tenant %s resumed with received_records=%v resume_fallbacks_total=%v, want %d and 0",
					tenantID(i), st["received_records"], st["resume_fallbacks_total"], prep.perTenant)
			}
		}
		rd.kill()
	}
	if sum.tenants != int64(w.tenants) || sum.received != sent || sum.fed != sent ||
		sum.parseErrors != 0 || sum.shed != 0 {
		return nil, invalidf("drain line does not reconcile with %d records sent to %d tenants: %+v",
			sent, w.tenants, sum)
	}

	// Assert: event logs against the reference, feed arrivals for latency.
	chk, err := checkLogs(filepath.Join(d.dir, logsName), w, prep.refs)
	if err != nil {
		return nil, err
	}
	for _, line := range chk.examples {
		fmt.Fprintln(os.Stderr, "bench:", line)
	}
	res := &runResult{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Attempted: sent + int64(chk.refLines),
		Failed:    int64(chk.missing + chk.extra),
	}
	if chk.extra > 0 {
		return nil, invalidf("%d event-log lines the reference does not have", chk.extra)
	}
	if float64(res.Failed) > maxFailShare*float64(res.Attempted) {
		return nil, invalidf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	lat := detectLatencies(w, prep, ph.plans, ph.arrived)
	if n := len(lat.ms) + lat.missed; n == 0 || float64(lat.missed) > maxFeedMissed*float64(n) {
		return nil, invalidf("%d of %d expected feed items never arrived", lat.missed, n)
	}
	if len(lat.ms) < minLatencies {
		return nil, invalidf("only %d detection latencies; run longer", len(lat.ms))
	}
	res.Correct = true

	// Daemon utime+stime from ready until every record was processed.
	cpuUS := float64(ph.cpu1-ph.cpu0) * float64(clockTick/time.Microsecond) / float64(sent)
	calibAfter := calibrate()
	res.Info = map[string]metric{
		"records_sent":     {float64(sent), "count"},
		"reference_lines":  {float64(chk.refLines), "count"},
		"unloggable_lines": {float64(chk.unloggable), "count"},
		"visits":           {float64(ph.visits), "count"},
		"achieved_rate":    {achieved, "1/s"},
		"detect_samples":   {float64(len(lat.ms)), "count"},
		"detect_p90_ms":    {stats.Percentile(lat.ms, 90), "ms"},
		"gen_late_p99_ms":  {genLateP99, "ms"},
		"drain_s":          {drain.Seconds(), "s"},
		"prep_s":           {prepS, "s"},
		"calib_ns_before":  {calibBefore, "ns"},
		"calib_ns_after":   {calibAfter, "ns"},
	}

	if cfg.trace {
		res.PerLayer = map[string]metric{
			"bench.detect_p90_ms":      {stats.Percentile(lat.ms, 90), "ms"},
			"bench.detect_p99_ms":      {stats.Percentile(lat.ms, 99), "ms"},
			"bench.detect_max_ms":      {stats.Max(lat.ms), "ms"},
			"bench.detect_samples":     {float64(len(lat.ms)), "count"},
			"bench.gen_late_p99_ms":    {genLateP99, "ms"},
			"bench.sse_missed":         {float64(lat.missed), "count"},
			"bench.prep_s":             {prepS, "s"},
			"bench.calib_ns":           {(calibBefore + calibAfter) / 2, "ns"},
			"bench.calib_drift_pct":    {(calibAfter/calibBefore - 1) * 100, "%"},
			"bench.drain_s":            {drain.Seconds(), "s"},
			"bench.e2e_cpu_us_per_rec": {cpuUS, "us"},
			"fleet.feed.items":         {float64(ph.feedItems), "count"},

			"fleet.eventlog.unloggable_lines": {float64(chk.unloggable), "count"},
		}
		for k, v := range ph.counts {
			res.PerLayer[k] = metric{v, "count"}
		}
		tracePath := filepath.Join(cfg.workRoot, "trace-"+w.name+".json")
		if err := traceLayers(prep, res, runDir, tracePath); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "bench: spans written to", tracePath)
		return res, checkNames(res.PerLayer, perLayerRunNames, perLayerProcNames)
	}

	res.Info["resume_s"] = metric{resume.Seconds(), "s"}
	res.EndToEnd = map[string]metric{
		"setup_s":        {stats.Median(setups), "s"},
		"cpu_us_per_rec": {cpuUS, "us"},
		"detect_p50_ms":  {stats.Percentile(lat.ms, 50), "ms"},
		"detect_p75_ms":  {stats.Percentile(lat.ms, 75), "ms"},
		"rss_peak_mb":    {ph.rssPeakMB, "MB"},
		"restart_s":      {restart.Seconds(), "s"},
	}
	return res, checkNames(res.EndToEnd, endToEndNames)
}
