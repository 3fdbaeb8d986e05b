package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// testMix is a two-endpoint mix against the paths testServer mounts.
func testMix(t *testing.T) *Mix {
	t.Helper()
	m, err := NewMix(
		Endpoint{Name: "ok", Route: "GET /ok", Weight: 3, Path: func(*RNG) string { return "/ok" }, Validate: ValidateJSON},
		Endpoint{Name: "also_ok", Route: "GET /also", Weight: 1, Path: func(*RNG) string { return "/also" }, Validate: ValidateJSON},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	json := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}
	mux.HandleFunc("/ok", json)
	mux.HandleFunc("/also", json)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestClosedLoopAccounting drives a fixed request count and checks the
// books: warmup excluded, per-endpoint requests summing to the measured
// total, zero errors, zero in-flight after Run.
func TestClosedLoopAccounting(t *testing.T) {
	ts := testServer(t)
	r, err := NewRunner(Spec{
		BaseURL:        ts.URL,
		Mix:            testMix(t),
		Seed:           42,
		Concurrency:    4,
		WarmupRequests: 20,
		Requests:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Warmup != 20 {
		t.Errorf("warmup = %d, want 20", res.Warmup)
	}
	if res.Completed != 200 {
		t.Errorf("completed = %d, want 200", res.Completed)
	}
	if res.Issued != 220 {
		t.Errorf("issued = %d, want 220", res.Issued)
	}
	if got := r.InFlight(); got != 0 {
		t.Errorf("in-flight after Run = %d, want 0", got)
	}
	var sum int64
	for _, es := range res.Endpoints {
		sum += es.Requests
		if es.Errors() != 0 {
			t.Errorf("endpoint %s: %d errors", es.Name, es.Errors())
		}
		if es.Hist.Count() != es.Requests {
			t.Errorf("endpoint %s: %d samples for %d requests", es.Name, es.Hist.Count(), es.Requests)
		}
	}
	if sum != res.Completed {
		t.Errorf("endpoint requests sum to %d, completed %d", sum, res.Completed)
	}
	if res.Aggregate.Hist.Count() != res.Completed {
		t.Errorf("aggregate samples %d, completed %d", res.Aggregate.Hist.Count(), res.Completed)
	}
	if res.ErrorFraction() > 0 || res.BudgetViolated(0) {
		t.Errorf("unexpected errors: fraction %v", res.ErrorFraction())
	}
	// 3:1 weights over 200 requests: the split must lean heavily toward
	// "ok" without requiring an exact ratio.
	if ok := res.Endpoint("ok"); ok == nil || ok.Requests < 100 {
		t.Errorf("weighted mix: 'ok' got %+v, want the majority of 200", ok)
	}
}

// TestClosedLoopCancellation cancels mid-run against a slow server and
// checks the in-flight accounting drains to zero: Run joins all
// workers, every issued request is accounted, and the partial result is
// still coherent.
func TestClosedLoopCancellation(t *testing.T) {
	release := make(chan struct{})
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{}`)
	}))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(release) })

	m, err := NewMix(Endpoint{Name: "slow", Weight: 1, Path: func(*RNG) string { return "/" }, Validate: ValidateJSON})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Spec{
		BaseURL:     ts.URL,
		Mix:         m,
		Seed:        1,
		Concurrency: 8,
		Requests:    10_000, // far more than can complete before cancel
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var runErr error
	go func() { // coordinated: closes done, joined below
		defer close(done)
		res, runErr = r.Run(ctx)
	}()

	// Wait until the workers are actually blocked in requests, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for hits.Load() < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := r.InFlight(); got != 8 {
		t.Errorf("in-flight while saturated = %d, want 8", got)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	if runErr == nil {
		t.Error("cancelled Run returned nil error")
	}
	if res == nil {
		t.Fatal("cancelled Run returned nil result")
	}
	if got := r.InFlight(); got != 0 {
		t.Errorf("in-flight after cancelled Run = %d, want 0", got)
	}
	// Every issued request is accounted exactly once: as a warmup
	// completion or in an endpoint's Requests (cancelled transport
	// attempts land in TransportErrors, still inside Requests).
	var accounted int64
	for _, es := range res.Endpoints {
		accounted += es.Requests
	}
	if accounted+res.Warmup != res.Issued {
		t.Errorf("accounting leak: issued %d, accounted %d (+%d warmup)", res.Issued, accounted, res.Warmup)
	}
}

// TestRunnerValidation covers spec validation and the error split:
// non-2xx answers count as HTTP errors, bad bodies as validation
// failures, both inside the error budget.
func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Spec{Mix: testMix(t), Requests: 1}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := NewRunner(Spec{BaseURL: "http://x", Requests: 1}); err == nil {
		t.Error("missing Mix accepted")
	}
	if _, err := NewRunner(Spec{BaseURL: "http://x", Mix: testMix(t)}); err == nil {
		t.Error("spec without Requests accepted")
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/missing", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	mux.HandleFunc("/garbage", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, "not json at all")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	m, err := NewMix(
		Endpoint{Name: "missing", Weight: 1, Path: func(*RNG) string { return "/missing" }, Validate: ValidateJSON},
		Endpoint{Name: "garbage", Weight: 1, Path: func(*RNG) string { return "/garbage" }, Validate: ValidateJSON},
	)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Spec{BaseURL: ts.URL, Mix: m, Seed: 3, Concurrency: 2, Requests: 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	missing, garbage := res.Endpoint("missing"), res.Endpoint("garbage")
	if missing == nil || missing.HTTPErrors != missing.Requests {
		t.Errorf("missing: %+v, want every request an HTTP error", missing)
	}
	if garbage == nil || garbage.ValidationFailures != garbage.Requests {
		t.Errorf("garbage: %+v, want every request a validation failure", garbage)
	}
	if !res.BudgetViolated(0.5) {
		t.Error("100% errors does not violate a 50% budget?")
	}
	if got, want := res.Aggregate.Errors(), res.Completed; got != want {
		t.Errorf("aggregate errors %d, want %d", got, want)
	}
}

// TestMixDeterminism pins the seeded request mix: same seed, same
// per-worker path sequence.
func TestMixDeterminism(t *testing.T) {
	mix := DefaultMix()
	draw := func(seed uint64, n int) []string {
		rng := Derive(seed, 0)
		out := make([]string, n)
		for i := range out {
			ep := mix.Pick(rng)
			out[i] = ep.Name + " " + ep.Path(rng)
		}
		return out
	}
	a, b := draw(42, 500), draw(42, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identically seeded draws: %q vs %q", i, a[i], b[i])
		}
	}
	c := draw(43, 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical request sequences")
	}
}

// TestDefaultMix sanity-checks the static table: weights sum to 100 and
// every generated path parses as path+query.
func TestDefaultMix(t *testing.T) {
	mix := DefaultMix()
	total := 0
	rng := NewRNG(7)
	for _, e := range mix.Endpoints() {
		total += e.Weight
		for i := 0; i < 50; i++ {
			p := e.Path(rng)
			if p == "" || p[0] != '/' {
				t.Errorf("endpoint %s: path %q does not start with /", e.Name, p)
			}
		}
		if e.Route == "" {
			t.Errorf("endpoint %s: no server route label", e.Name)
		}
	}
	if total != 100 {
		t.Errorf("default mix weights sum to %d, want 100", total)
	}
}
