package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"behaviot/internal/fleet"
	"behaviot/internal/fleet/listener"
)

// The tests share one work root: the daemon is built once and the
// reference pipeline trained once, exactly as repeated runs of the
// command share .bench_build.
var testWork string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bb")
	if err != nil {
		panic(err)
	}
	testWork = dir
	code := m.Run()
	os.RemoveAll(dir) //lint:ignore errcheck best-effort removal of the tests' scratch directory
	os.Exit(code)
}

// testPrepared builds the daemon and prepares a small home-active run.
func testPrepared(t *testing.T, w workload, seconds int) (*prepared, string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the daemon and trains the reference pipeline")
	}
	bin, err := buildDaemon(context.Background(), "..", filepath.Join(testWork, "bin"))
	if err != nil {
		t.Fatal(err)
	}
	prep, err := prepare(runConfig{workRoot: testWork, w: w, seed: 1, seconds: seconds}, bin)
	if err != nil {
		t.Fatal(err)
	}
	return prep, bin
}

func TestPacerArithmetic(t *testing.T) {
	t0 := time.Unix(1000, 0)
	p := pacer{t0: t0, rate: 100000}
	if got := p.due(0); !got.Equal(t0) {
		t.Errorf("record 0 due %v, want t0", got)
	}
	if got := p.due(250000); !got.Equal(t0.Add(2500 * time.Millisecond)) {
		t.Errorf("record 250000 due %v, want t0+2.5s", got)
	}
	for _, tc := range []struct {
		at    time.Duration
		total int
		want  int
	}{
		{-time.Millisecond, 1000, 0},
		{0, 1000, 1}, // record 0 is due at t0 itself
		{time.Millisecond, 1000, 101},
		{time.Millisecond - time.Nanosecond, 1000, 100},
		{time.Second, 1000, 1000}, // capped at the plan's total
	} {
		if got := p.dueCount(t0.Add(tc.at), tc.total); got != tc.want {
			t.Errorf("dueCount at %v of %d = %d, want %d", tc.at, tc.total, got, tc.want)
		}
	}
	// Every record counted as due is due; the next one is not yet.
	now := t0.Add(1234567 * time.Nanosecond)
	n := p.dueCount(now, 1<<30)
	if p.due(n-1).After(now) || !p.due(n).After(now) {
		t.Errorf("dueCount %d disagrees with due(): %v, %v around %v", n, p.due(n-1), p.due(n), now)
	}
	if got := p.nextTick(t0.Add(2500 * time.Microsecond)); !got.Equal(t0.Add(3 * time.Millisecond)) {
		t.Errorf("nextTick = %v, want t0+3ms", got)
	}
	if got := p.nextTick(t0.Add(3 * time.Millisecond)); !got.Equal(t0.Add(4 * time.Millisecond)) {
		t.Errorf("nextTick on a boundary = %v, want the following boundary", got)
	}
}

func TestPlansCoverEveryRecordOnce(t *testing.T) {
	for _, w := range append(workloads, workloads[2].quick()) {
		per := w.perTenant(2)
		if per <= 0 || (w.visit > 0 && per%w.visit != 0) {
			t.Fatalf("%s: %d records per tenant is not a whole number of visits", w.name, per)
		}
		ps := plans(w, per, "unused", time.Unix(0, 0), make([]reference, w.classes))
		seen := make([][]bool, w.tenants)
		for i := range seen {
			seen[i] = make([]bool, per)
		}
		for c, p := range ps {
			lastTenant, lastIdx := -1, -1
			for j := 0; j < p.total; j++ {
				tenant, idx := p.route(j)
				if tenant%w.conns != c {
					t.Fatalf("%s: connection %d routes to tenant %d", w.name, c, tenant)
				}
				if seen[tenant][idx] {
					t.Fatalf("%s: tenant %d record %d sent twice", w.name, tenant, idx)
				}
				seen[tenant][idx] = true
				if tenant == lastTenant && idx != lastIdx+1 {
					t.Fatalf("%s: tenant %d records out of order: %d after %d", w.name, tenant, idx, lastIdx)
				}
				lastTenant, lastIdx = tenant, idx
				if gc, gj := connIndex(w, per, tenant, idx); gc != c || gj != j {
					t.Fatalf("%s: connIndex(%d,%d) = (%d,%d), want (%d,%d)", w.name, tenant, idx, gc, gj, c, j)
				}
			}
		}
		for tenant, s := range seen {
			for idx, ok := range s {
				if !ok {
					t.Fatalf("%s: tenant %d record %d never sent", w.name, tenant, idx)
				}
			}
		}
	}
}

func TestProcParsers(t *testing.T) {
	stat := []byte("4242 (behaviotd (x) y) S 1 2 3 4 5 6 7 8 9 10 111 22 0 0 20 0 9 0 100 1 2\n")
	if got, err := parseStatTicks(stat); err != nil || got != 133 {
		t.Errorf("parseStatTicks = %d, %v; want 133", got, err)
	}
	status := []byte("Name:\tbehaviotd\nVmPeak:\t  999 kB\nVmHWM:\t  147456 kB\nVmRSS:\t 1 kB\n")
	if got, err := parseVmHWM(status); err != nil || got != 144 {
		t.Errorf("parseVmHWM = %v, %v; want 144", got, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
}

// TestSeedGivesIdenticalStreams pins the benchmark's input contract: the
// seed decides every byte, and only the seed.
func TestSeedGivesIdenticalStreams(t *testing.T) {
	w := workloads[1]
	w.streamHours = 1
	a, err := genStream(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genStream(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different streams")
	}
	c, err := genStream(w, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.data, c.data) {
		t.Fatal("different seeds gave identical streams")
	}
	// Wrapping keeps stream time strictly ahead of the previous round.
	n := len(a.times)
	last, _ := a.at(n - 1)
	first, data := a.at(n)
	if first <= last || !bytes.Equal(data, a.data[0]) {
		t.Fatalf("wrap: record %d at %d after record %d at %d", n, first, n-1, last)
	}
}

// TestReferenceIsDeterministic replays one stream twice: the same keys
// with the same triggering records, in the same order.
func TestReferenceIsDeterministic(t *testing.T) {
	w := workloads[1]
	w.streamHours = 2
	prep, _ := testPrepared(t, w, 1)
	s := prep.refs[0].stream
	n := 2*len(s.times) + 100 // across a wrap
	a, _, err := replayReference(prep.pipeSnap, prep.acfg, s, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := replayReference(prep.pipeSnap, prep.acfg, s, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("two replays of one stream differ (%d and %d items)", len(a), len(b))
	}
	seen := map[string]bool{}
	for i, it := range a {
		if seen[it.key] {
			t.Fatalf("key %q is not unique", it.key)
		}
		seen[it.key] = true
		if it.trigger < 0 || it.trigger > n || (i > 0 && it.trigger < a[i-1].trigger) {
			t.Fatalf("item %d: trigger %d out of order or range", i, it.trigger)
		}
	}
}

// TestPacedClientAgainstListener drives the rig's own client against an
// in-process listener.Server and fleet.Daemon: every visit gets its exact
// final ack and the tenants' monitors see exactly what was sent.
func TestPacedClientAgainstListener(t *testing.T) {
	w := workload{
		name: "test", tenants: 4, conns: 2, classes: 2, ratePerConn: 20000,
		streamHours: 1, actEvery: time.Minute, visit: 500,
	}
	prep, _ := testPrepared(t, w, 1)
	d, err := fleet.New(fleet.Config{PipeSnap: prep.pipeSnap, AssemblerCfg: prep.acfg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var tenants []*fleet.Tenant
	for i := 0; i < w.tenants; i++ {
		tn, err := d.Add(tenantID(i), tenantToken(i))
		if err != nil {
			t.Fatal(err)
		}
		tenants = append(tenants, tn)
	}
	sock := filepath.Join(t.TempDir(), "in.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := listener.New(d)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-served
	}()

	if _, err := dialIngest(sock, tenantID(0), "wrong-token", time.Second); err == nil ||
		!strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("dial with a wrong token: %v, want an unauthorized refusal", err)
	}

	ps := plans(w, prep.perTenant, sock, time.Now(), prep.refs)
	results := make(chan connResult, len(ps))
	for _, p := range ps {
		go func() { results <- p.run() }()
	}
	for range ps {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if want := prep.perTenant * w.tenants / w.conns; r.sent != want || r.visits != want/w.visit {
			t.Errorf("connection sent %d records in %d visits, want %d in %d", r.sent, r.visits, want, want/w.visit)
		}
	}
	for _, tn := range tenants {
		if err := waitTenant(tn, prep.perTenant); err != nil {
			t.Error(err)
		}
		if st := tn.Status(); st["received_records"].(int64) != int64(prep.perTenant) || st["parse_errors"].(int64) != 0 {
			t.Errorf("tenant %s: %v", tn.ID, st)
		}
	}
}

// TestTraceLayersFillsEveryLayerMetric runs the in-process half of a
// traced run and checks it against the declared per-layer names.
func TestTraceLayersFillsEveryLayerMetric(t *testing.T) {
	w := workloads[1]
	w.streamHours = 2
	prep, _ := testPrepared(t, w, 1)
	// What the paced phase of a traced run leaves behind for the budget.
	res := &runResult{
		PerLayer: map[string]metric{"bench.e2e_cpu_us_per_rec": {4, "us"}},
		Info:     map[string]metric{"records_sent": {1000, "count"}, "visits": {1, "count"}},
	}
	for _, name := range boundaryNames {
		res.PerLayer[name] = metric{0, "count"}
	}
	before := len(res.PerLayer)
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := traceLayers(prep, res, t.TempDir(), tracePath); err != nil {
		t.Fatal(err)
	}
	for _, name := range perLayerProcNames {
		if _, ok := res.PerLayer[name]; !ok {
			t.Errorf("traceLayers left %s unset", name)
		}
	}
	if got := len(res.PerLayer) - before; got != len(perLayerProcNames) {
		t.Errorf("traceLayers set %d metrics, %d are declared", got, len(perLayerProcNames))
	}
	checkUnits(t, res.PerLayer, loadSpec(t).PerLayer)
	b := res.PerLayer["budget.explained_us_per_rec"].Value + res.PerLayer["budget.unexplained_us_per_rec"].Value
	if diff := b - 4; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("budget rows sum to %v, want the end-to-end 4", b)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != layerBlocks*8 {
		t.Errorf("trace holds %d spans, want %d", len(spans), layerBlocks*8)
	}
	for i, s := range spans {
		if s.EndNS < s.StartNS || s.Parent >= i {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests compare the
// command with.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkUnits compares the units a run printed with the declared ones.
func checkUnits(t *testing.T, got map[string]metric, declared []specMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range declared {
		units[m.Name] = m.Unit
	}
	for name, m := range got {
		if units[name] != m.Unit {
			t.Errorf("%s printed in %q, BENCHMARK.json declares %q", name, m.Unit, units[name])
		}
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the command
// in step: same workloads, same metric names, and the run length the
// command defaults to.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", spec.RunSeconds, defaultSeconds)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, the command has %v", names, want)
	}
	sorted := func(v []string) []string {
		out := append([]string(nil), v...)
		sort.Strings(out)
		return out
	}
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(sorted(names), sorted(endToEndNames)) {
		t.Errorf("end_to_end %v, the command reports %v", sorted(names), sorted(endToEndNames))
	}
	names = nil
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	perLayer := append(append([]string(nil), perLayerRunNames...), perLayerProcNames...)
	if !reflect.DeepEqual(sorted(names), sorted(perLayer)) {
		t.Errorf("per_layer %v, the command reports %v", sorted(names), sorted(perLayer))
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such"}, {"--seconds", "0"}, {"--trace", "2"}, {"--nope"}, {"stray"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want 2 and no output", args, code, stdout.String())
		}
	}
}

// TestQuickSmoke is the whole rig at smoke size against the real daemon:
// build, launch, paced visits with checkpoints, drain, oracle, resume,
// teardown — and the exact result line the benchmark driver reads.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches the real daemon")
	}
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "result.json")
	code := run([]string{
		"--workload", "fleet-ckpt", "--quick", "--seed", "3", "--seconds", "2", "--trace", "0",
		"--root", "..", "--work", testWork, "--out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 8*6000 {
		t.Errorf("result %+v", last)
	}
	for _, name := range endToEndNames {
		if m, ok := last.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("metric %s = %+v, want a positive value with a unit", name, m)
		}
	}
	checkUnits(t, last.Metrics, loadSpec(t).EndToEnd)
	if len(last.Metrics) != len(endToEndNames) {
		t.Errorf("%d metrics on the result line, want %d", len(last.Metrics), len(endToEndNames))
	}
	if _, err := os.Stat(out); err != nil {
		t.Error(err)
	}
	// Teardown: nothing of the run is left in the work root but the
	// built daemon and the cached reference.
	left, err := filepath.Glob(filepath.Join(testWork, "r[0-9]*"))
	if err != nil || len(left) != 0 {
		t.Errorf("run directories left behind: %v %v", left, err)
	}
}
