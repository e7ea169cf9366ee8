package fleet

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"behaviot/internal/modelstore"
)

// TestResumeFallbackObservable pins the resume-fallback contract: a
// tenant asked to resume that finds a broken snapshot starts fresh —
// but not silently. The fallback lands as a typed line in the event
// log, a per-tenant counter on /tenants/{id}/status, and a
// behaviot_tenant_resume_fallbacks_total series on /metrics.
func TestResumeFallbackObservable(t *testing.T) {
	fx := getFixture(t)
	dir := t.TempDir()
	cfg := baseConfig(t, fx, 1, dir)
	cfg.Resume = true

	// First life: ingest, then Remove to land a final checkpoint.
	d1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := d1.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tn, fx.classes[0][:300])
	if err := d1.Remove("home-1"); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Poison the store: a newer intact generation whose monitor bytes
	// are garbage. Load succeeds (the generation passes every CRC) but
	// UnmarshalState cannot — a real fallback, not a cold start.
	s, err := modelstore.Open(filepath.Join(cfg.StoreRoot, "tenants", "home-1"), modelstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("fleet-test/v1", map[string][]byte{
		modelstore.FileMonitor: []byte("not a monitor snapshot"),
		modelstore.FileTenant:  []byte("not a tenant snapshot"),
	}); err != nil {
		t.Fatal(err)
	}

	// Second life: the Add must fall back to fresh and say so.
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close() //lint:ignore errcheck fleet.Close always returns nil; deferred for cleanup only
	tn2, err := d2.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn2.resumeFallbacks.Load(); got != 1 {
		t.Fatalf("resumeFallbacks = %d, want 1", got)
	}
	if tn2.received.Load() != 0 {
		t.Error("fallback tenant kept restored counters; it should have started fresh")
	}

	ts := newControlServer(t, d2)
	_, statusBody := doJSON(t, http.MethodGet, ts.URL+"/tenants/home-1/status", nil)
	var status map[string]any
	if err := json.Unmarshal(statusBody, &status); err != nil {
		t.Fatal(err)
	}
	if got, ok := status["resume_fallbacks_total"].(float64); !ok || got != 1 {
		t.Errorf("status resume_fallbacks_total = %v, want 1", status["resume_fallbacks_total"])
	}
	if reason, _ := status["resume_fallback_reason"].(string); !strings.Contains(reason, "monitor snapshot") {
		t.Errorf("status resume_fallback_reason = %q, want a monitor-snapshot reason", reason)
	}
	_, metrics := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil)
	if !strings.Contains(string(metrics), `behaviot_tenant_resume_fallbacks_total{tenant="home-1"} 1`) {
		t.Error("/metrics missing behaviot_tenant_resume_fallbacks_total series for home-1")
	}

	// The fallback is durable: a typed line in the tenant's event log.
	logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, "home-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(string(logData)), "\n") {
		var rec struct {
			Type   string `json:"type"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event log line %q: %v", line, err)
		}
		if rec.Type == "resume-fallback" {
			found = true
			if !strings.Contains(rec.Detail, "monitor snapshot") {
				t.Errorf("resume-fallback line detail = %q, want a monitor-snapshot reason", rec.Detail)
			}
		}
	}
	if !found {
		t.Error("event log has no resume-fallback line after a real fallback")
	}
}

// TestColdStartIsNotAFallback pins the other half of the contract: a
// tenant resuming over an empty store (ErrNoSnapshot) is a cold start,
// not a fallback — no counter, no event-log line. Byte-identity
// oracles depend on this: a clean first boot must produce exactly the
// same event log as a non-resuming one.
func TestColdStartIsNotAFallback(t *testing.T) {
	fx := getFixture(t)
	cfg := baseConfig(t, fx, 1, t.TempDir())
	cfg.Resume = true
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close() //lint:ignore errcheck fleet.Close always returns nil; deferred for cleanup only
	tn, err := d.Add("home-1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.resumeFallbacks.Load(); got != 0 {
		t.Fatalf("cold start counted %d resume fallbacks, want 0", got)
	}
	logData, err := os.ReadFile(filepath.Join(cfg.EventLogDir, "home-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(logData), "resume-fallback") {
		t.Error("cold start wrote a resume-fallback line")
	}
}
