package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"must"
)

// TestEngineOverloadMapsTo429 drives engine-level backpressure through
// the HTTP surface: once maintenance debt crosses the watermark, writes
// get 429 + Retry-After while searches keep returning 200.
func TestEngineOverloadMapsTo429(t *testing.T) {
	s, ts, queries, ids := testServer(t, Config{CacheSize: -1})
	if err := s.eng.SetAdmission(must.AdmissionOptions{DebtWatermark: 0.10}); err != nil {
		t.Fatal(err)
	}
	// Tombstone past the watermark; the shedding point lands mid-loop.
	saw429 := false
	for _, id := range ids {
		resp, _ := postJSON(t, ts.URL+"/v1/delete", DeleteRequest{IDs: []int64{id}})
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete: unexpected status %d", resp.StatusCode)
		}
	}
	if !saw429 {
		t.Fatal("deletes never shed; debt watermark not reached")
	}
	// Inserts shed too.
	resp, body := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Vectors: queries[0].Vectors})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("insert during overload: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("insert 429 without Retry-After")
	}
	// Searches are never gated by write backpressure.
	resp, body = postJSON(t, ts.URL+"/v1/search", SearchRequest{Vectors: queries[0].Vectors, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search during overload: %d %s", resp.StatusCode, body)
	}
	// The shed count is visible in /v1/stats and /metrics.
	resp, body = getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Server.WritesShed == 0 {
		t.Fatal("stats writes_shed = 0 after shed writes")
	}
	_, body = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "must_writes_shed_total") {
		t.Fatal("metrics missing must_writes_shed_total")
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "must_writes_shed_total ") && strings.TrimPrefix(line, "must_writes_shed_total ") == "0" {
			t.Fatal("must_writes_shed_total is 0 after shed writes")
		}
	}
}

// TestWriteAdmissionSeparateFromRead fills the write-class semaphore to
// capacity and checks writes shed 429 while reads still flow — the
// budgets must be independent.
func TestWriteAdmissionSeparateFromRead(t *testing.T) {
	eng, queries, _ := testEngine(t, 200)
	s := New(eng, Config{CacheSize: -1, MaxInFlightWrites: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Occupy every write slot (as in-flight writes would).
	s.wsem <- struct{}{}
	s.wsem <- struct{}{}
	defer func() { <-s.wsem; <-s.wsem }()

	resp, body := postJSON(t, ts.URL+"/v1/insert", InsertRequest{Vectors: queries[0].Vectors})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("insert with write budget exhausted: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("write-class 429 without Retry-After")
	}
	if !strings.Contains(string(body), "writes") {
		t.Fatalf("429 body %q should name the write budget", body)
	}
	if s.metrics.WritesShed() == 0 {
		t.Fatal("write-class rejection not counted in writesShed")
	}
	// Read admission is untouched: searches still 200.
	resp, body = postJSON(t, ts.URL+"/v1/search", SearchRequest{Vectors: queries[0].Vectors, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search with write budget exhausted: %d %s", resp.StatusCode, body)
	}
}

// TestStatsAndMetricsMaintenanceBlock: an attached maintainer surfaces
// in /v1/stats (maintenance block) and /metrics (rebuild counters).
func TestStatsAndMetricsMaintenanceBlock(t *testing.T) {
	eng, _, ids := testEngine(t, 200)
	s := New(eng, Config{CacheSize: -1})
	m := must.StartMaintenance(eng, must.MaintenanceOptions{
		Interval:           2 * time.Millisecond,
		MinRebuildGap:      time.Millisecond,
		TombstoneWatermark: 0.10,
	})
	defer m.Close()
	s.AttachMaintainer(m)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// Push past the watermark and wait for the self-heal.
	for _, id := range ids[:40] {
		if err := eng.Delete(id); err != nil && eng.Deleted() > 0 {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && (eng.Deleted() != 0 || m.Rebuilds() == 0) {
		time.Sleep(2 * time.Millisecond)
	}
	if m.Rebuilds() == 0 {
		t.Fatal("maintenance never rebuilt")
	}

	_, body := getBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Maintenance == nil || !st.Maintenance.Enabled || st.Maintenance.Rebuilds == 0 {
		t.Fatalf("stats maintenance block = %+v, want enabled with rebuilds > 0", st.Maintenance)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	text := string(body)
	if !strings.Contains(text, "must_maintenance_rebuilds_total") {
		t.Fatal("metrics missing must_maintenance_rebuilds_total")
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "must_maintenance_rebuilds_total ") &&
			strings.TrimPrefix(line, "must_maintenance_rebuilds_total ") == "0" {
			t.Fatal("must_maintenance_rebuilds_total is 0 after a rebuild")
		}
	}
}
