package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"behaviot/internal/core"
	"behaviot/internal/stream"
)

// checkLineEncoding compares both hand-rolled encoders with
// json.Marshal on one set of field values: identical bytes when
// json.Marshal succeeds, refusal (nothing appended) when it does not.
func checkLineEncoding(t *testing.T, typ, device, label, kind, detail string, tm time.Time, conf, score float64) {
	t.Helper()
	line := eventLogLine{Type: typ, Time: tm, Device: device, Label: label, Kind: kind, Detail: detail, Confidence: conf, Score: score}
	want, err := json.Marshal(line)
	got, ok := line.appendJSON([]byte("prefix "))
	switch {
	case ok != (err == nil):
		t.Fatalf("eventLogLine %+v: appendJSON ok=%v, json.Marshal err=%v", line, ok, err)
	case !ok && string(got) != "prefix ":
		t.Errorf("eventLogLine %+v: refused line left %q behind", line, got)
	case ok && string(got) != "prefix "+string(want):
		t.Errorf("eventLogLine:\n got %s\nwant %s", got[len("prefix "):], want)
	}

	item := FeedItem{Tenant: typ, Kind: kind, Time: tm, Device: device, Label: label, DevKind: kind, Detail: detail, Confidence: conf, Score: score}
	want, err = json.Marshal(item)
	got = item.appendSSE([]byte("prefix "))
	switch {
	case err != nil && string(got) != "prefix ":
		t.Errorf("FeedItem %+v: json.Marshal fails (%v) but appendSSE wrote %q", item, err, got)
	case err == nil && string(got) != "prefix data: "+string(want)+"\n\n":
		t.Errorf("FeedItem:\n got %q\nwant %q", got[len("prefix "):], "data: "+string(want)+"\n\n")
	}
}

// TestEventLogLineMatchesEncodingJSON pins the append-style encoders to
// encoding/json byte for byte — field order, omitempty, RFC3339Nano
// times, float formatting, string escaping — over hand-picked edge
// cases and a seeded random sweep, and pins the refusal of non-finite
// scores (the line is dropped, exactly as when json.Marshal failed).
func TestEventLogLineMatchesEncodingJSON(t *testing.T) {
	tm := time.Unix(1628727297, 570925363).UTC()
	checkLineEncoding(t, "event", "TPLink Plug", "TPLink Plug:on", "", "", tm, 0.93, 0)
	checkLineEncoding(t, "deviation", "Gosund Bulb", "", "periodic-event", "TCP-a2.tuyaus.com-87 (silent)", tm, 0, 2.3480238899488035)
	checkLineEncoding(t, "panic", "home-1", "goroutine 1 [running]:\n\tmain.go:1 +0x1\n", "feed", `boom "quoted" <&>`, tm.In(time.FixedZone("", -5*3600)), 0, 0)
	checkLineEncoding(t, "", "", "", "", "", time.Time{}, math.Copysign(0, -1), 1e-7)
	checkLineEncoding(t, "deviation", "d", "", "short-term", "x", tm, 0, math.Inf(1))
	checkLineEncoding(t, "deviation", "d", "", "short-term", "x", tm, math.NaN(), 1)
	checkLineEncoding(t, "deviation", "d", "", "short-term", "x", time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), 0, 1)

	rng := rand.New(rand.NewSource(7))
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			if rng.Intn(4) == 0 {
				b[i] = byte(rng.Intn(256))
			} else {
				b[i] = byte(0x20 + rng.Intn(0x5f))
			}
		}
		return string(b)
	}
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Float64frombits(rng.Uint64())
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	for i := 0; i < 5000; i++ {
		when := time.Unix(rng.Int63n(1<<34), rng.Int63n(1e9)).In(time.FixedZone("", rng.Intn(28*3600)-14*3600))
		checkLineEncoding(t, str(), str(), str(), str(), str(), when, num(), num())
	}
}

func FuzzEventLogLineMatchesEncodingJSON(f *testing.F) {
	f.Add("event", "TPLink Plug", "TPLink Plug:on", "", "", int64(1628727297), int64(570925363), 0.93, 0.0)
	f.Add("deviation", "d\xff", "", "k<", " ", int64(0), int64(0), 0.0, 1e-9)
	f.Fuzz(func(t *testing.T, typ, device, label, kind, detail string, sec, nsec int64, conf, score float64) {
		checkLineEncoding(t, typ, device, label, kind, detail, time.Unix(sec%(1<<36), nsec%1e9).UTC(), conf, score)
	})
}

// TestNonFiniteScoreLineIsDroppedEverywhere pins today's behaviour for
// the one value JSON cannot carry: the deviation reaches neither the
// event log nor /feed, its neighbours reach both, and the log's
// high-water mark counts exactly the bytes on disk.
func TestNonFiniteScoreLineIsDroppedEverywhere(t *testing.T) {
	fx := getFixture(t)
	dir := t.TempDir()
	d, err := New(baseConfig(t, fx, 1, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/feed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	when := time.Unix(1628727297, 0).UTC()
	for i, score := range []float64{1.5, math.Inf(1), 2.5} {
		tn.recordDeviation(stream.Deviation{Kind: core.DevShortTerm, Time: when, Score: score,
			Device: "Gosund Bulb", Detail: fmt.Sprintf("trace %d", i)})
	}
	tn.Checkpoint() // flushes the buffered lines and records the mark

	data, err := os.ReadFile(filepath.Join(dir, "logs", "home-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "trace 0") || !strings.Contains(lines[1], "trace 2") {
		t.Errorf("event log = %q, want the two finite-score lines", lines)
	}
	tn.ringMu.Lock()
	mark := tn.eventLogBytes
	tn.ringMu.Unlock()
	if mark != int64(len(data)) {
		t.Errorf("high-water mark %d, log holds %d bytes", mark, len(data))
	}

	sc := bufio.NewScanner(resp.Body)
	var details []string
	for len(details) < 2 && sc.Scan() {
		if body, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var it FeedItem
			if err := json.Unmarshal([]byte(body), &it); err != nil {
				t.Fatal(err)
			}
			details = append(details, it.Detail)
		}
	}
	if len(details) != 2 || details[0] != "trace 0" || details[1] != "trace 2" {
		t.Errorf("/feed delivered %q, want trace 0 and trace 2 only", details)
	}
}

// gatedWriter is a ResponseWriter that records how the feed handler
// groups its output. Its first Flush — the handler's header flush, which
// comes after it has subscribed — parks until the test releases it, so
// the test can fill the subscription before the handler's first receive.
type gatedWriter struct {
	writes, flushes int
	body            bytes.Buffer
	subscribed      chan struct{}
	release         chan struct{}
	delivered       chan struct{}
}

func (g *gatedWriter) Header() http.Header { return http.Header{} }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	g.writes++
	return g.body.Write(p)
}
func (g *gatedWriter) Flush() {
	if g.flushes++; g.flushes == 1 {
		close(g.subscribed)
		<-g.release
	} else if g.flushes == 2 {
		close(g.delivered)
	}
}

// TestFeedCoalescesBufferedItems pins the /feed flush policy: items
// already waiting in the subscription go out in one write and one
// flush, in order, none lost. (That a lone item still goes out at once,
// with no timer to wait on, is TestControlFeedStreamsEvents.) It also
// pins the drop counter: items published to a full subscription are
// counted on behaviot_feed_dropped_total.
func TestFeedCoalescesBufferedItems(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 1, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Park a subscriber that never reads, so its 2-item buffer fills.
	_, cancelSlow := d.Subscribe(2)
	defer cancelSlow()

	const burst = 40
	w := &gatedWriter{subscribed: make(chan struct{}), release: make(chan struct{}), delivered: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/feed", nil)
	if err != nil {
		t.Fatal(err)
	}
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		d.handleFeed(w, req)
	}()
	<-w.subscribed
	when := time.Unix(1628727297, 0).UTC()
	for i := 0; i < burst; i++ {
		d.publish(FeedItem{Tenant: "home-1", Kind: "event", Time: when, Device: "d", Label: fmt.Sprintf("item-%02d", i)})
	}
	close(w.release)
	select {
	case <-w.delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("burst never reached the response")
	}
	cancel()
	<-handlerDone

	if w.writes != 1 || w.flushes != 2 { // header flush + one for the burst
		t.Errorf("burst of %d items took %d writes and %d flushes, want 1 and 2", burst, w.writes, w.flushes)
	}
	sc := bufio.NewScanner(&w.body)
	n := 0
	for sc.Scan() {
		if body, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var it FeedItem
			if err := json.Unmarshal([]byte(body), &it); err != nil {
				t.Fatal(err)
			}
			if want := fmt.Sprintf("item-%02d", n); it.Label != want {
				t.Fatalf("item %d is %q, want %q", n, it.Label, want)
			}
			n++
		}
	}
	if n != burst {
		t.Errorf("%d of %d items delivered", n, burst)
	}
	if got := d.feed.dropped.Load(); got != burst-2 {
		t.Errorf("dropped counter %d, want %d (the parked subscriber's overflow)", got, burst-2)
	}
	ts := newControlServer(t, d)
	_, metrics := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if want := fmt.Sprintf("behaviot_feed_dropped_total %d\n", burst-2); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics missing %q", want)
	}
}
