package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipv4market/internal/latency"
)

// requestTimeout bounds each request.
const requestTimeout = 10 * time.Second

// Spec describes one closed-loop load run. BaseURL, Mix and Requests
// are required; Concurrency defaults to 8.
type Spec struct {
	// BaseURL is the target, e.g. "http://127.0.0.1:8090". Paths from
	// the mix are appended verbatim.
	BaseURL string
	// Mix is the weighted endpoint workload.
	Mix *Mix
	// Seed determines the request mix exactly: worker i draws from
	// Derive(Seed, i), so equal seeds yield equal per-worker request
	// sequences.
	Seed uint64
	// Concurrency is the worker count: each worker issues its next
	// request as soon as the previous one finishes, so offered load
	// adapts to the server (default 8).
	Concurrency int
	// WarmupRequests are issued and validated before measurement starts;
	// their latencies never enter the histograms (default 0).
	WarmupRequests int
	// Requests is the measured request count.
	Requests int
}

func (s Spec) withDefaults() (Spec, error) {
	if s.BaseURL == "" {
		return s, fmt.Errorf("loadgen: Spec.BaseURL is required")
	}
	if s.Mix == nil {
		return s, fmt.Errorf("loadgen: Spec.Mix is required")
	}
	if s.Requests <= 0 {
		return s, fmt.Errorf("loadgen: Spec.Requests must be > 0")
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 8
	}
	return s, nil
}

// EndpointStats aggregates one endpoint's measured outcomes. Errors are
// split by layer: transport (the request never completed), HTTP (a
// completed non-2xx answer), validation (a 2xx answer the endpoint's
// validator rejected). Requests counts completed request attempts,
// including errored ones.
type EndpointStats struct {
	Name               string
	Route              string
	Requests           int64
	TransportErrors    int64
	HTTPErrors         int64
	ValidationFailures int64
	Bytes              int64
	Hist               *latency.Histogram
}

// Errors returns the endpoint's total error count across all layers.
func (e *EndpointStats) Errors() int64 {
	return e.TransportErrors + e.HTTPErrors + e.ValidationFailures
}

// merge folds o into e (same endpoint, different worker).
func (e *EndpointStats) merge(o *EndpointStats) {
	e.Requests += o.Requests
	e.TransportErrors += o.TransportErrors
	e.HTTPErrors += o.HTTPErrors
	e.ValidationFailures += o.ValidationFailures
	e.Bytes += o.Bytes
	e.Hist.Merge(o.Hist)
}

// Result is one load run's outcome. Endpoints are sorted by name;
// Aggregate folds all endpoints together (histograms merge exactly, so
// aggregate percentiles are as good as per-endpoint ones).
type Result struct {
	Seed        uint64
	Concurrency int

	Issued    int64 // requests started, warmup included
	Warmup    int64 // warmup completions (excluded from stats)
	Completed int64 // measured completions (= Aggregate.Requests)

	// MeasuredSeconds is the wall-clock span of the measured phase
	// (first post-warmup issue to last completion); ThroughputRPS is
	// Completed over that span.
	MeasuredSeconds float64
	ThroughputRPS   float64

	Aggregate *EndpointStats
	Endpoints []*EndpointStats
}

// Endpoint returns the named endpoint's stats, nil when absent.
func (r *Result) Endpoint(name string) *EndpointStats {
	for _, e := range r.Endpoints {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// ErrorFraction is total errors over measured completions (0 when no
// requests completed).
func (r *Result) ErrorFraction() float64 {
	if r.Aggregate.Requests == 0 {
		return 0
	}
	return float64(r.Aggregate.Errors()) / float64(r.Aggregate.Requests)
}

// BudgetViolated reports whether the run's error fraction exceeds the
// allowed budget. The comparison is on counts (errors > budget×requests)
// so a zero budget means "any error violates" with no float equality in
// sight.
func (r *Result) BudgetViolated(budget float64) bool {
	return float64(r.Aggregate.Errors()) > budget*float64(r.Aggregate.Requests)
}

// Runner executes one Spec. A Runner is single-use: construct, Run once,
// read the Result.
type Runner struct {
	spec   Spec
	client *http.Client

	inFlight atomic.Int64
	issued   atomic.Int64

	// measuredStart is the wall-clock time the first measured (post-
	// warmup) request was issued, recorded once.
	measuredStartOnce sync.Once
	measuredStart     time.Time
}

// NewRunner validates the spec and returns a runner for it.
func NewRunner(spec Spec) (*Runner, error) {
	s, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConns: s.Concurrency, MaxIdleConnsPerHost: s.Concurrency}
	return &Runner{spec: s, client: &http.Client{Transport: tr}}, nil
}

// InFlight returns the number of requests currently outstanding. It is
// 0 before Run, bounded by Concurrency during it, and 0 again after Run
// returns — Run joins every worker before returning, even on
// cancellation.
func (r *Runner) InFlight() int64 { return r.inFlight.Load() }

// Issued returns the number of requests started so far, warmup included.
// Safe to poll concurrently with Run (cmd/marketbench uses it to time
// the rebuild-under-load event).
func (r *Runner) Issued() int64 { return r.issued.Load() }

// workerStats is one worker's private accounting, merged after join.
type workerStats struct {
	endpoints map[string]*EndpointStats
	warmup    int64
}

func newWorkerStats() *workerStats {
	return &workerStats{endpoints: make(map[string]*EndpointStats)}
}

func (ws *workerStats) endpoint(e *Endpoint) *EndpointStats {
	es, ok := ws.endpoints[e.Name]
	if !ok {
		es = &EndpointStats{Name: e.Name, Route: e.Route, Hist: latency.NewHistogram()}
		ws.endpoints[e.Name] = es
	}
	return es
}

// Run drives Concurrency workers off a shared ticket counter until
// WarmupRequests+Requests have been issued or ctx is cancelled, then
// joins every worker and returns the merged result. The ticket is the
// request's global index, which makes the warmup boundary exact:
// tickets 1..WarmupRequests are warmup, the rest measured. A cancelled
// run returns the partial result plus ctx's error, with the accounting
// invariant intact either way: InFlight() == 0 and Issued() == warmup
// + measured completions + transport errors in flight at cancellation
// (every issued request is accounted exactly once).
//
// Before returning, Run closes the client's idle connections. The
// transport can dial a connection that never carries a request (the
// request it was dialed for took an idle one first), and net/http
// counts such a connection as active for 5 s, which would hold up a
// graceful shutdown of the server it points at.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	defer r.client.CloseIdleConnections()
	total := int64(r.spec.WarmupRequests + r.spec.Requests)
	var (
		ticket atomic.Int64
		wg     sync.WaitGroup
	)
	stats := make([]*workerStats, r.spec.Concurrency)
	for i := 0; i < r.spec.Concurrency; i++ {
		stats[i] = newWorkerStats()
		wg.Add(1)
		go func(ws *workerStats, rng *RNG) {
			defer wg.Done()
			for ctx.Err() == nil {
				t := ticket.Add(1)
				if t > total {
					return
				}
				r.one(ctx, ws, rng, t <= int64(r.spec.WarmupRequests))
			}
		}(stats[i], Derive(r.spec.Seed, uint64(i)))
	}
	wg.Wait()
	return r.mergeStats(stats, time.Now()), ctx.Err()
}

// one issues a single request drawn from the mix and accounts it.
func (r *Runner) one(ctx context.Context, ws *workerStats, rng *RNG, warmup bool) {
	ep := r.spec.Mix.Pick(rng)
	path := ep.Path(rng)

	if !warmup {
		r.measuredStartOnce.Do(func() { r.measuredStart = time.Now() })
	}
	r.issued.Add(1)
	r.inFlight.Add(1)
	defer r.inFlight.Add(-1)

	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()

	begin := time.Now()
	status, header, body, err := doRequest(rctx, r.client, r.spec.BaseURL+path)
	elapsed := time.Since(begin)

	if warmup {
		ws.warmup++
		return
	}
	es := ws.endpoint(ep)
	es.Requests++
	es.Bytes += int64(len(body))
	switch {
	case err != nil:
		es.TransportErrors++
		return // no latency sample for a request that never completed
	case status < 200 || status > 299:
		es.HTTPErrors++
	case ep.Validate != nil:
		if verr := ep.Validate(status, header, body); verr != nil {
			es.ValidationFailures++
		}
	}
	es.Hist.Record(elapsed)
}

// doRequest performs one GET and drains the body (bounded — a body the
// validator would accept is far below the cap; draining keeps the
// connection reusable).
func doRequest(ctx context.Context, client *http.Client, url string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("loadgen: build request: %w", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("loadgen: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return resp.StatusCode, resp.Header, body, fmt.Errorf("loadgen: read body: %w", err)
	}
	return resp.StatusCode, resp.Header, body, nil
}

// mergeStats joins the per-worker stats into the Result. Endpoint merge
// order is sorted by name, so the merged histograms and counters are
// identical regardless of worker scheduling (histogram merge is
// associative and commutative; TestHistogramMergeAssociativity pins it).
func (r *Runner) mergeStats(stats []*workerStats, end time.Time) *Result {
	merged := make(map[string]*EndpointStats)
	var warmup int64
	for _, ws := range stats {
		warmup += ws.warmup
		names := make([]string, 0, len(ws.endpoints))
		for name := range ws.endpoints {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			es := ws.endpoints[name]
			if have, ok := merged[name]; ok {
				have.merge(es)
			} else {
				cp := &EndpointStats{Name: es.Name, Route: es.Route, Hist: latency.NewHistogram()}
				cp.merge(es)
				merged[name] = cp
			}
		}
	}

	res := &Result{
		Seed:        r.spec.Seed,
		Concurrency: r.spec.Concurrency,
		Issued:      r.issued.Load(),
		Warmup:      warmup,
		Aggregate:   &EndpointStats{Name: "aggregate", Hist: latency.NewHistogram()},
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		es := merged[name]
		res.Endpoints = append(res.Endpoints, es)
		res.Aggregate.merge(es)
	}
	res.Completed = res.Aggregate.Requests

	if !r.measuredStart.IsZero() && end.After(r.measuredStart) {
		res.MeasuredSeconds = end.Sub(r.measuredStart).Seconds()
		if res.MeasuredSeconds > 0 {
			res.ThroughputRPS = float64(res.Completed) / res.MeasuredSeconds
		}
	}
	return res
}
