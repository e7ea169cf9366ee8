package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newControlServer stands up a daemon plus its REST control plane.
func newControlServer(t *testing.T, d *Daemon) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	d.RegisterHandlers(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestControlAddRemoveUnderLiveIngest is the control plane's core
// guarantee: adding and removing tenants over REST while other tenants
// are mid-stream never costs an unaffected tenant a single packet.
func TestControlAddRemoveUnderLiveIngest(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)

	steady, err := d.Add("steady", "tok-steady")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add("doomed", "tok-doomed"); err != nil {
		t.Fatal(err)
	}

	// The steady tenant streams continuously while the churn happens.
	var sent atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		recs := fx.classes[0]
		for i := 0; ; i = (i + 1) % len(recs) {
			select {
			case <-stop:
				return
			default:
			}
			if err := steady.IngestRecord(recs[i].Time, recs[i].Data, nil); err != nil {
				t.Errorf("steady tenant: %v", err)
				return
			}
			sent.Add(1)
		}
	}()
	// Its rings are read over REST all the while (class 0 writes both):
	// under -race this is the ring-lock check.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ring := range []string{"events", "deviations"} {
				resp, err := http.Get(ts.URL + "/tenants/steady/" + ring)
				if err != nil {
					t.Errorf("GET %s: %v", ring, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s = %d", ring, resp.StatusCode)
					return
				}
			}
		}
	}()

	// Churn: add one tenant, remove another, list — all over REST.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants", map[string]string{"id": "fresh", "token": "tok-fresh"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tenants = %d: %s", resp.StatusCode, body)
	}
	var added struct {
		ID    string `json:"id"`
		Shard int    `json:"shard"`
	}
	if err := json.Unmarshal(body, &added); err != nil || added.ID != "fresh" {
		t.Fatalf("POST /tenants body %s (err %v)", body, err)
	}
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/tenants/doomed", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /tenants/doomed = %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/tenants", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tenants = %d", resp.StatusCode)
	}
	var listing struct {
		Shards  int `json:"shards"`
		Tenants []struct {
			ID string `json:"id"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, tn := range listing.Tenants {
		ids[tn.ID] = true
	}
	if !ids["steady"] || !ids["fresh"] || ids["doomed"] {
		t.Errorf("GET /tenants after churn = %v; want steady+fresh, no doomed", ids)
	}

	close(stop)
	wg.Wait()
	if got, want := steady.received.Load(), sent.Load(); got != want {
		t.Errorf("steady tenant received %d of %d packets sent during churn", got, want)
	}
	if want := steady.fed.Load(); steady.monitor.Stats().Packets != want {
		t.Errorf("steady tenant monitor consumed %d packets, want %d", steady.monitor.Stats().Packets, want)
	}

	// Error surfaces: duplicate → 409, bad id → 400, unknown delete → 404.
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/tenants", map[string]string{"id": "fresh", "token": "x"}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate POST = %d, want 409", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodPost, ts.URL+"/tenants", map[string]string{"id": "../etc", "token": "x"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-id POST = %d, want 400", resp.StatusCode)
	}
	if resp, _ := doJSON(t, http.MethodDelete, ts.URL+"/tenants/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown DELETE = %d, want 404", resp.StatusCode)
	}
}

// TestControlAddErrorStatuses pins the POST /tenants status mapping:
// validation failures are the client's fault (400), duplicates 409,
// server-side construction failures 500, and a closed daemon 503 —
// an infrastructure problem must never masquerade as a 400.
func TestControlAddErrorStatuses(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 1, t.TempDir())
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := newControlServer(t, d)

	for _, tc := range []struct {
		name string
		body map[string]string
		want int
	}{
		{"bad id", map[string]string{"id": "../etc", "token": "x"}, http.StatusBadRequest},
		{"empty token", map[string]string{"id": "home-1", "token": ""}, http.StatusBadRequest},
		{"spacey token", map[string]string{"id": "home-1", "token": "a b"}, http.StatusBadRequest},
	} {
		if resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants", tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s POST = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}

	// A tenant whose event-log path is unopenable (a directory squats
	// on it) fails construction server-side: 500, not 400.
	if err := os.Mkdir(filepath.Join(cfg.EventLogDir, "busted.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants", map[string]string{"id": "busted", "token": "x"}); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("I/O-failure POST = %d, want 500: %s", resp.StatusCode, body)
	}

	// A daemon whose event log is one named file (behaviotd -eventlog)
	// holds one tenant: a second would interleave into the same log.
	one := cfg
	one.EventLogDir, one.EventLogFile = "", filepath.Join(t.TempDir(), "events.jsonl")
	single, err := New(one)
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	singleTS := newControlServer(t, single)
	for i, want := range []int{http.StatusCreated, http.StatusConflict} {
		body := map[string]string{"id": fmt.Sprintf("only-%d", i), "token": "x"}
		if resp, msg := doJSON(t, http.MethodPost, singleTS.URL+"/tenants", body); resp.StatusCode != want {
			t.Errorf("EventLogFile daemon, POST %d = %d, want %d: %s", i, resp.StatusCode, want, msg)
		}
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if resp, body := doJSON(t, http.MethodPost, ts.URL+"/tenants", map[string]string{"id": "home-1", "token": "x"}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST after Close = %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestControlStatusShape pins the /tenants/{id}/status JSON contract.
func TestControlStatusShape(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tn, fx.classes[0][:200])

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/tenants/home-1/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st["tenant"] != "home-1" {
		t.Errorf("status tenant = %v", st["tenant"])
	}
	// Numeric fields arrive as float64 through encoding/json.
	for _, key := range []string{
		"shard", "packets", "flows", "periodic", "user", "aperiodic",
		"deviations", "late_dropped", "received_records", "fed_records",
		"parse_errors", "queue_depth",
		"store_generation", "checkpoints_total", "checkpoint_failures_total",
		"panics_total", "restarts_total",
	} {
		v, ok := st[key]
		if !ok {
			t.Errorf("status missing %q", key)
			continue
		}
		if _, ok := v.(float64); !ok {
			t.Errorf("status %q = %T, want number", key, v)
		}
	}
	if got := st["received_records"].(float64); got != 200 {
		t.Errorf("received_records = %v, want 200", got)
	}
	if got := st["health"]; got != "healthy" {
		t.Errorf("health = %v, want %q", got, "healthy")
	}
	if _, ok := st["checkpoint_age_alarm"].(bool); !ok {
		t.Errorf("checkpoint_age_alarm = %T, want bool", st["checkpoint_age_alarm"])
	}
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/tenants/ghost/status", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status of unknown tenant = %d, want 404", resp.StatusCode)
	}
}

// TestControlMetricsTenantLabels pins the /metrics contract: every
// per-tenant series carries a tenant label, so one home's sheds and
// stalls are visible on its own label.
func TestControlMetricsTenantLabels(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 2, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)
	for _, id := range []string{"home-a", "home-b"} {
		tn, err := d.Add(id, "tok")
		if err != nil {
			t.Fatal(err)
		}
		n := 100
		if id == "home-b" {
			n = 150
		}
		ingestAll(t, tn, fx.classes[0][:n])
	}

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"behaviot_fleet_tenants 2",
		"behaviot_fleet_shards 2",
		`behaviot_tenant_received_records_total{tenant="home-a"} 100`,
		`behaviot_tenant_received_records_total{tenant="home-b"} 150`,
		`behaviot_tenant_packets_total{tenant="home-a"} 100`,
		"behaviot_feed_dropped_total 0",
		"behaviot_fleet_degraded 0",
		"behaviot_fleet_quarantined 0",
		`behaviot_tenant_checkpoint_failures_total{tenant="home-a"} 0`,
		`behaviot_tenant_health{tenant="home-a"} 0`,
		`behaviot_tenant_checkpoint_age_alarm{tenant="home-a"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The queue is gone, and its series with it.
	if strings.Contains(text, "behaviot_tenant_queue_") {
		t.Error("/metrics still exports behaviot_tenant_queue_* series")
	}
	// Deterministic rendering: two samples of an idle fleet are identical.
	_, body2 := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if !bytes.Equal(body, body2) {
		t.Error("/metrics output is not deterministic on an idle fleet")
	}
}

// TestControlFeedStreamsEvents pins the SSE feed: a subscriber sees
// tenant-tagged events as they are published.
func TestControlFeedStreamsEvents(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 1, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)
	if _, err := d.Add("home-1", "tok"); err != nil {
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
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	want := FeedItem{Tenant: "home-1", Kind: "deviation", Time: time.Unix(0, 0).UTC(), Device: "Gosund Bulb", Detail: "went dark"}
	d.publish(want)

	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var got FeedItem
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &got); err != nil {
			t.Fatal(err)
		}
		if got.Tenant != want.Tenant || got.Kind != want.Kind || got.Device != want.Device || got.Detail != want.Detail {
			t.Errorf("feed item = %+v, want %+v", got, want)
		}
		return // one item is the contract under test
	}
	t.Fatalf("feed ended without an item: %v", sc.Err())
}

// TestControlTenantEvents pins /tenants/{id}/events and
// /tenants/{id}/deviations: the tenant's recent rings from a real
// replay, as JSON, and 404 for a tenant that is not registered.
func TestControlTenantEvents(t *testing.T) {
	fx := getFixture(t)
	d, err := New(baseConfig(t, fx, 1, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ts := newControlServer(t, d)
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	// Class 0 reliably produces one user event and, its bulb dying
	// mid-window, silence deviations (pinned by the debug stats behind
	// the fixture design).
	ingestAll(t, tn, fx.classes[0])

	for _, tc := range []struct {
		ring string
		held int
		keys []string
	}{
		{"events", len(tn.Events()), []string{"time", "device", "label", "confidence"}},
		{"deviations", len(tn.Deviations()), []string{"time", "kind", "device", "score", "detail"}},
	} {
		resp, body := doJSON(t, http.MethodGet, ts.URL+"/tenants/home-1/"+tc.ring, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", tc.ring, resp.StatusCode)
		}
		var items []map[string]any
		if err := json.Unmarshal(body, &items); err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 || len(items) != tc.held {
			t.Fatalf("GET %s returned %d items; tenant ring has %d", tc.ring, len(items), tc.held)
		}
		for _, it := range items {
			for _, key := range tc.keys {
				if _, ok := it[key]; !ok {
					t.Errorf("%s item missing %q: %v", tc.ring, key, it)
				}
			}
		}
		if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/tenants/nobody/"+tc.ring, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s of an unknown tenant = %d, want 404", tc.ring, resp.StatusCode)
		}
	}
}
