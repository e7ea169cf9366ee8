package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"behaviot/internal/modelstore"
	"behaviot/internal/stream"
)

// RegisterHandlers mounts the fleet control plane on a mux:
//
//	GET    /tenants                 list tenants (id, shard, live counters)
//	POST   /tenants                 add a tenant: {"id": ..., "token": ...}
//	DELETE /tenants/{id}            drain and remove a tenant
//	GET    /tenants/{id}/status     one tenant's full status JSON
//	GET    /tenants/{id}/events     one tenant's recent user events
//	GET    /tenants/{id}/deviations one tenant's recent deviations
//	POST   /tenants/{id}/restart    rebuild a tenant from its last checkpoint
//	GET    /metrics                 Prometheus text, tenant-labeled series
//	GET    /healthz                 fleet health rollup (degraded/quarantined)
//	GET    /feed                    SSE stream of events and deviations
//
// Add, Remove, and Restart take effect live — no process restart, no
// disturbance to other tenants' ingest.
func (d *Daemon) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("GET /tenants", d.handleListTenants)
	mux.HandleFunc("POST /tenants", d.handleAddTenant)
	mux.HandleFunc("DELETE /tenants/{id}", d.handleRemoveTenant)
	mux.HandleFunc("GET /tenants/{id}/status", d.handleTenantStatus)
	mux.HandleFunc("GET /tenants/{id}/events", d.handleTenantEvents)
	mux.HandleFunc("GET /tenants/{id}/deviations", d.handleTenantDeviations)
	mux.HandleFunc("POST /tenants/{id}/restart", d.handleRestartTenant)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /feed", d.handleFeed)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing better to do than drop the conn.
		return
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *Daemon) handleListTenants(w http.ResponseWriter, r *http.Request) {
	tenants := d.List()
	out := make([]map[string]any, 0, len(tenants))
	for _, t := range tenants {
		st := t.stats()
		out = append(out, map[string]any{
			"id":               t.ID,
			"shard":            t.Shard,
			"packets":          st.Packets,
			"deviations":       st.Deviations,
			"received_records": t.received.Load(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":  d.cfg.Shards,
		"tenants": out,
	})
}

func (d *Daemon) handleAddTenant(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID    string `json:"id"`
		Token string `json:"token"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	t, err := d.Add(req.ID, req.Token)
	if err != nil {
		// Only validation failures are the client's fault; anything
		// else (store open, event-log I/O, ...) is a server problem
		// and must not masquerade as a 400.
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrTenantExists), errors.Is(err, ErrOneEventLog):
			status = http.StatusConflict
		case errors.Is(err, ErrBadTenantID),
			errors.Is(err, ErrTokenRequired),
			errors.Is(err, errTokenHasSpace):
			status = http.StatusBadRequest
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": t.ID, "shard": t.Shard})
}

func (d *Daemon) handleRemoveTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := d.Remove(id); err != nil {
		status := http.StatusNotFound
		if !errors.Is(err, ErrTenantUnknown) {
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": id})
}

// handleRestartTenant rebuilds one tenant from its last durable
// checkpoint — the operator path out of quarantine. 409 means the
// crash-loop budget is spent and the tenant needs investigation, not
// another restart.
func (d *Daemon) handleRestartTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, err := d.Restart(id)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, ErrTenantUnknown):
			status = http.StatusNotFound
		case errors.Is(err, ErrCrashLoop), errors.Is(err, ErrTenantBusy):
			status = http.StatusConflict
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"restarted":  t.ID,
		"shard":      t.Shard,
		"health":     t.Health().String(),
		"generation": t.storeGen.Load(),
	})
}

// handleHealthz is the fleet liveness/health rollup: "ok" only when no
// tenant is degraded or quarantined, so probes and dashboards get one
// bit before drilling into per-tenant status. The status code carries
// the same bit for probes that never parse the body: 503 while any
// tenant is quarantined (monitoring lost until an operator restart),
// 200 otherwise — degraded tenants keep monitoring while checkpoint
// retries back off, so they do not fail the probe.
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	degraded, quarantined := healthCounts(d.List())
	status := "ok"
	if degraded > 0 || quarantined > 0 {
		status = "degraded"
	}
	code := http.StatusOK
	if quarantined > 0 {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"tenants":     d.TenantCount(),
		"shards":      d.cfg.Shards,
		"degraded":    degraded,
		"quarantined": quarantined,
	})
}

func (d *Daemon) handleTenantStatus(w http.ResponseWriter, r *http.Request) {
	t := d.Get(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound, ErrTenantUnknown)
		return
	}
	writeJSON(w, http.StatusOK, t.Status())
}

func (d *Daemon) handleTenantEvents(w http.ResponseWriter, r *http.Request) {
	t := d.Get(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound, ErrTenantUnknown)
		return
	}
	events := t.Events()
	out := make([]map[string]any, len(events))
	for i, e := range events {
		out[i] = map[string]any{
			"time": e.Time, "device": e.Device,
			"label": e.Label, "confidence": e.Confidence,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Daemon) handleTenantDeviations(w http.ResponseWriter, r *http.Request) {
	t := d.Get(r.PathValue("id"))
	if t == nil {
		writeError(w, http.StatusNotFound, ErrTenantUnknown)
		return
	}
	deviations := t.Deviations()
	out := make([]map[string]any, len(deviations))
	for i, dv := range deviations {
		out[i] = map[string]any{
			"time": dv.Time, "kind": dv.Kind.String(), "device": dv.Device,
			"score": dv.Score, "detail": dv.Detail,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders Prometheus text exposition with one series per
// tenant per counter, labeled tenant="<id>". Tenants are emitted in
// sorted-ID order so the output is deterministic.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	tenants := d.List()
	fmt.Fprintf(w, "# TYPE behaviot_fleet_tenants gauge\nbehaviot_fleet_tenants %d\n", len(tenants))
	fmt.Fprintf(w, "# TYPE behaviot_fleet_shards gauge\nbehaviot_fleet_shards %d\n", d.cfg.Shards)
	degraded, quarantined := healthCounts(tenants)
	fmt.Fprintf(w, "# TYPE behaviot_fleet_degraded gauge\nbehaviot_fleet_degraded %d\n", degraded)
	fmt.Fprintf(w, "# TYPE behaviot_fleet_quarantined gauge\nbehaviot_fleet_quarantined %d\n", quarantined)
	fmt.Fprintf(w, "# TYPE behaviot_feed_dropped_total counter\nbehaviot_feed_dropped_total %d\n", d.feed.dropped.Load())

	// Sample every tenant once up front (one shard-lock acquisition
	// each), then render series grouped by metric name as the
	// exposition format requires.
	type sample struct {
		t  *Tenant
		st stream.Stats
		ws modelstore.WriteStats
	}
	samples := make([]sample, len(tenants))
	for i, t := range tenants {
		samples[i] = sample{t: t, st: t.stats()}
		if t.store != nil {
			samples[i].ws = t.store.Stats()
		}
	}

	type series struct {
		name string
		val  func(sample) int64
	}
	render := func(kind string, all []series) {
		for _, m := range all {
			fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kind)
			for _, s := range samples {
				fmt.Fprintf(w, "%s{tenant=%q} %d\n", m.name, s.t.ID, m.val(s))
			}
		}
	}
	render("counter", []series{
		{"behaviot_tenant_packets_total", func(s sample) int64 { return s.st.Packets }},
		{"behaviot_tenant_flows_total", func(s sample) int64 { return s.st.Flows }},
		{"behaviot_tenant_events_periodic_total", func(s sample) int64 { return s.st.Periodic }},
		{"behaviot_tenant_events_user_total", func(s sample) int64 { return s.st.User }},
		{"behaviot_tenant_deviations_total", func(s sample) int64 { return s.st.Deviations }},
		{"behaviot_tenant_late_dropped_total", func(s sample) int64 { return s.st.LateDropped }},
		{"behaviot_tenant_received_records_total", func(s sample) int64 { return s.t.received.Load() }},
		{"behaviot_tenant_parse_errors_total", func(s sample) int64 { return s.t.parseErrors.Load() }},
		{"behaviot_tenant_checkpoints_total", func(s sample) int64 { return s.t.checkpointsTotal.Load() }},
		{"behaviot_tenant_checkpoint_failures_total", func(s sample) int64 { return s.t.ckptFailuresTotal.Load() }},
		{"behaviot_tenant_checkpoint_fulls_total", func(s sample) int64 { return int64(s.ws.Fulls) }},
		{"behaviot_tenant_checkpoint_deltas_total", func(s sample) int64 { return int64(s.ws.Deltas) }},
		{"behaviot_tenant_checkpoint_bytes_total", func(s sample) int64 { return int64(s.ws.FullBytes + s.ws.DeltaBytes) }},
		{"behaviot_tenant_resume_fallbacks_total", func(s sample) int64 { return s.t.resumeFallbacks.Load() }},
		{"behaviot_tenant_panics_total", func(s sample) int64 { return s.t.panics.Load() }},
		{"behaviot_tenant_restarts_total", func(s sample) int64 { return s.t.restarts.Load() }},
	})
	render("gauge", []series{
		{"behaviot_tenant_store_generation", func(s sample) int64 { return s.t.storeGen.Load() }},
		// Health encodes the FSM state numerically (0 healthy, 1
		// degraded, 2 quarantined) so dashboards can alert on >= 1.
		{"behaviot_tenant_health", func(s sample) int64 { return int64(s.t.Health()) }},
		{"behaviot_tenant_checkpoint_age_seconds", func(s sample) int64 {
			if s.t.store == nil {
				return 0
			}
			return int64(s.t.checkpointAge().Seconds())
		}},
		// The ROADMAP's checkpoint-age alarm: 1 when the newest durable
		// checkpoint is older than the configured threshold.
		{"behaviot_tenant_checkpoint_age_alarm", func(s sample) int64 {
			if s.t.checkpointAgeAlarm() {
				return 1
			}
			return 0
		}},
	})
}

// handleFeed streams the fleet event feed as server-sent events: one
// `data: <json>` line per user event or deviation, tenant-tagged. After
// each blocking receive it takes whatever else the subscription already
// holds and sends the lot with one write and one flush: a burst costs
// one syscall, and nothing ever waits on a timer. The stream ends when
// the client disconnects or the daemon closes.
func (d *Daemon) handleFeed(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	ch, cancel := d.Subscribe(256)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	var buf []byte
	for {
		select {
		case <-r.Context().Done():
			return
		case it, ok := <-ch:
			// held is a snapshot: the only receiver can take that many
			// without blocking, and a fast publisher cannot starve the flush.
			buf = buf[:0]
			for held := len(ch); ok; held-- {
				buf = it.appendSSE(buf)
				if held == 0 {
					break
				}
				it, ok = <-ch
			}
			if len(buf) > 0 {
				if _, err := w.Write(buf); err != nil {
					return // client gone
				}
				flusher.Flush()
			}
			if !ok {
				return // daemon closed
			}
		}
	}
}
