package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"ipv4market/internal/latency"
)

// ServerVarz is the slice of a marketd /varz document the load harness
// consumes: the latency bucket bounds and the per-route request and
// latency-bucket counters. The field names mirror internal/serve's
// export (latency_buckets_ms + per-route latency_counts, both over the
// internal/latency layout); loadgen deliberately re-declares them over
// HTTP instead of importing the serving layer.
type ServerVarz struct {
	LatencyBucketsMS []float64            `json:"latency_buckets_ms"`
	Routes           map[string]RouteVarz `json:"routes"`
	// Process and ZeroCopy are optional sections (absent on servers
	// predating them): cumulative allocation counters and the artifact
	// read-path split, used for per-node allocation accounting.
	Process  *ProcessVarz  `json:"process"`
	ZeroCopy *ZeroCopyVarz `json:"zero_copy"`
	// Snapshot, Rebuilds and Replication are present only on marketd
	// (Replication only on a leader or follower); marketbench polls them
	// to follow a rebuild and the followers' catch-up.
	Snapshot    *SnapshotVarz    `json:"snapshot"`
	Rebuilds    *RebuildsVarz    `json:"rebuilds"`
	Replication *ReplicationVarz `json:"replication"`
}

// SnapshotVarz is the served snapshot's identity: its swap sequence
// number and the store generation backing it.
type SnapshotVarz struct {
	Seq uint64 `json:"seq"`
	Gen uint64 `json:"gen"`
}

// RebuildsVarz is the background-rebuild progress.
type RebuildsVarz struct {
	Total    int64 `json:"total"`
	Errors   int64 `json:"errors"`
	InFlight bool  `json:"in_flight"`
}

// ReplicationVarz is the replication state a follower reports.
type ReplicationVarz struct {
	AppliedGen     uint64 `json:"applied_gen"`
	LagGenerations int    `json:"lag_generations"`
}

// ProcessVarz is the slice of the process section the harness uses:
// cumulative runtime allocation counters (runtime.MemStats TotalAlloc
// and Mallocs). Scraped before and after a measured phase, the deltas
// give the node's allocation cost per served request.
type ProcessVarz struct {
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
}

// ZeroCopyVarz is the zero_copy section: how static artifact responses
// were served — straight from the sealed segment file, from the
// in-memory copy (no persisted generation), or via fallback after a
// file error — and, apart from those, how many responses were computed
// per query (filters, lookups, as-of views), which live only in memory.
type ZeroCopyVarz struct {
	FileReads int64 `json:"file_reads"`
	MemReads  int64 `json:"mem_reads"`
	Fallbacks int64 `json:"fallbacks"`
	Computed  int64 `json:"computed"`
}

// RouteVarz is one route's counters as exported on /varz.
type RouteVarz struct {
	Requests      int64            `json:"requests"`
	ByStatusClass map[string]int64 `json:"by_status_class"`
	MeanLatencyMS float64          `json:"mean_latency_ms"`
	// LatencyCounts is aligned with the document's latency_buckets_ms,
	// plus one trailing overflow bucket.
	LatencyCounts []int64 `json:"latency_counts"`
}

// ScrapeVarz fetches and decodes base's /varz document.
func ScrapeVarz(ctx context.Context, client *http.Client, base string) (*ServerVarz, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/varz", nil)
	if err != nil {
		return nil, fmt.Errorf("loadgen: build varz request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("loadgen: scrape varz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: scrape varz: %s answered %s", base, resp.Status)
	}
	var v ServerVarz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&v); err != nil {
		return nil, fmt.Errorf("loadgen: decode varz: %w", err)
	}
	return &v, nil
}

// RouteQuantile estimates the q-quantile of one route's server-side
// latency from the scraped bucket counters. The second return is false
// when the route is absent or has no samples, or when the document's
// buckets are not the internal/latency layout (a server predating it).
func (v *ServerVarz) RouteQuantile(route string, q float64) (float64, bool) {
	r, ok := v.Routes[route]
	if !ok || r.Requests == 0 || len(v.LatencyBucketsMS) != latency.Slots-1 {
		return 0, false
	}
	est, err := latency.QuantileFromBuckets(r.LatencyCounts, q)
	return est, err == nil
}

// TotalRequests sums every route's request counter — the node's served
// request count at scrape time.
func (v *ServerVarz) TotalRequests() int64 {
	var n int64
	for _, r := range v.Routes {
		n += r.Requests
	}
	return n
}

// RouteNames returns the scraped route labels, sorted.
func (v *ServerVarz) RouteNames() []string {
	names := make([]string, 0, len(v.Routes))
	for name := range v.Routes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
