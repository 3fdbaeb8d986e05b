package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"ipv4market/internal/latency"
)

// TestScrapeVarz parses a serve-shaped /varz document over the shared
// latency layout and recomputes a server-side quantile from its bucket
// export — the cross-check marketbench runs after every topology — and
// rejects a document in the ten-bound layout /varz used to export.
func TestScrapeVarz(t *testing.T) {
	bounds := latency.BucketBoundsMS()
	counts := make([]int64, latency.Slots)
	counts[10], counts[20], counts[30], counts[40] = 60, 25, 10, 3
	counts[50] = 2
	doc := func(bounds []float64, counts []int64) string {
		b, _ := json.Marshal(bounds)
		c, _ := json.Marshal(counts)
		return fmt.Sprintf(`{
  "uptime_seconds": 12.5,
  "latency_buckets_ms": %s,
  "snapshot": {"seq": 3, "gen": 2},
  "rebuilds": {"total": 1, "errors": 0, "in_flight": true},
  "replication": {"applied_gen": 2, "lag_generations": 1},
  "routes": {
    "GET /v1/table1": {
      "requests": 100,
      "by_status_class": {"2xx": 100},
      "mean_latency_ms": 0.8,
      "latency_counts": %s
    },
    "GET /healthz": {"requests": 0}
  }
}`, b, c)
	}
	scrape := func(body string) *ServerVarz {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/varz" {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, body)
		}))
		t.Cleanup(ts.Close)
		v, err := ScrapeVarz(context.Background(), nil, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := scrape(doc(bounds, counts))
	if len(v.LatencyBucketsMS) != latency.Slots-1 {
		t.Fatalf("bucket bounds: %d, want %d", len(v.LatencyBucketsMS), latency.Slots-1)
	}
	if v.Snapshot == nil || v.Snapshot.Seq != 3 || v.Snapshot.Gen != 2 ||
		v.Rebuilds == nil || v.Rebuilds.Total != 1 || !v.Rebuilds.InFlight ||
		v.Replication == nil || v.Replication.AppliedGen != 2 || v.Replication.LagGenerations != 1 {
		t.Errorf("optional sections decoded as %+v %+v %+v", v.Snapshot, v.Rebuilds, v.Replication)
	}

	p50, ok := v.RouteQuantile("GET /v1/table1", 0.5)
	if !ok {
		t.Fatal("no p50 for a route with 100 samples")
	}
	// Rank 50 of 100 falls in bucket 10 (60 samples).
	if p50 <= bounds[9] || p50 > bounds[10] {
		t.Errorf("p50 = %v, want in (%v, %v]", p50, bounds[9], bounds[10])
	}
	p99, ok := v.RouteQuantile("GET /v1/table1", 0.99)
	if !ok {
		t.Fatal("no p99")
	}
	// Rank 99 is the 99th sample: 60+25+10+3 = 98 are in buckets ≤ 40,
	// so it lands in bucket 50.
	if p99 <= bounds[49] || p99 > bounds[50] {
		t.Errorf("p99 = %v, want in (%v, %v]", p99, bounds[49], bounds[50])
	}

	if _, ok := v.RouteQuantile("GET /healthz", 0.5); ok {
		t.Error("quantile for a sample-free route")
	}
	if _, ok := v.RouteQuantile("GET /missing", 0.5); ok {
		t.Error("quantile for an absent route")
	}

	names := v.RouteNames()
	if len(names) != 2 || names[0] != "GET /healthz" {
		t.Errorf("route names %v, want sorted pair", names)
	}

	// The old ten-bound layout decodes but yields no quantile.
	old := scrape(doc([]float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}, []int64{60, 25, 10, 3, 2, 0, 0, 0, 0, 0, 0}))
	if q, ok := old.RouteQuantile("GET /v1/table1", 0.5); ok {
		t.Errorf("ten-bound document answered p50 = %v, want rejection", q)
	}
}

// TestScrapeVarzErrors covers transport and status failures.
func TestScrapeVarzErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	if _, err := ScrapeVarz(context.Background(), nil, ts.URL); err == nil {
		t.Error("503 varz accepted")
	}
	if _, err := ScrapeVarz(context.Background(), nil, "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable varz accepted")
	}
}
