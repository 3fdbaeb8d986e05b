package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// fleetNode is one fake backend: counts hits, answers /readyz according
// to its ready flag, echoes its own id on /who.
type fleetNode struct {
	id    string
	ready atomic.Bool
	hits  atomic.Int64
	ts    *httptest.Server
}

func newFleetNode(t *testing.T, id string) *fleetNode {
	t.Helper()
	n := &fleetNode{id: id}
	n.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !n.ready.Load() {
			http.Error(w, `{"status":"unready"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/who", func(w http.ResponseWriter, _ *http.Request) {
		n.hits.Add(1)
		fmt.Fprint(w, n.id)
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

// TestRouterRoundRobin checks requests spread evenly over healthy
// backends.
func TestRouterRoundRobin(t *testing.T) {
	a, b, c := newFleetNode(t, "a"), newFleetNode(t, "b"), newFleetNode(t, "c")
	rt, err := NewNamedRouter([]string{a.ts.URL, b.ts.URL, c.ts.URL},
		map[string]string{a.ts.URL: "a", b.ts.URL: "b", c.ts.URL: "c"})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	const n = 90
	for i := 0; i < n; i++ {
		resp, err := http.Get(front.URL + "/who")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	for _, node := range []*fleetNode{a, b, c} {
		if got := node.hits.Load(); got != n/3 {
			t.Errorf("backend %s: %d hits, want %d", node.id, got, n/3)
		}
	}
	var forwarded int64
	for _, be := range rt.Backends() {
		if got := be.Forwarded(); got != n/3 {
			t.Errorf("router accounted %d forwards to %s, want %d", got, be.Name(), n/3)
		}
		forwarded += be.Forwarded()
	}
	if forwarded != n {
		t.Errorf("router accounted %d forwards, want %d", forwarded, n)
	}
}

// TestRouterDrainsUnready checks the health loop takes a 503-answering
// backend out of rotation and restores it when it recovers — the
// router-side half of the follower -max-lag contract.
func TestRouterDrainsUnready(t *testing.T) {
	a, b := newFleetNode(t, "a"), newFleetNode(t, "b")
	rt, err := NewNamedRouter([]string{a.ts.URL, b.ts.URL},
		map[string]string{a.ts.URL: "a", b.ts.URL: "b"})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	hit := func() {
		resp, err := http.Get(front.URL + "/who")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Drain b and re-check health synchronously (the loop calls the same
	// CheckHealth; driving it directly keeps the test clock-free).
	b.ready.Store(false)
	if healthy := rt.CheckHealth(context.Background()); healthy != 1 {
		t.Fatalf("healthy = %d, want 1", healthy)
	}
	aBefore, bBefore := a.hits.Load(), b.hits.Load()
	for i := 0; i < 20; i++ {
		hit()
	}
	if got := b.hits.Load() - bBefore; got != 0 {
		t.Errorf("drained backend b served %d requests", got)
	}
	if got := a.hits.Load() - aBefore; got != 20 {
		t.Errorf("backend a served %d of 20", got)
	}

	// Recover b: it rejoins the rotation.
	b.ready.Store(true)
	if healthy := rt.CheckHealth(context.Background()); healthy != 2 {
		t.Fatalf("healthy after recovery = %d, want 2", healthy)
	}
	bBefore = b.hits.Load()
	for i := 0; i < 20; i++ {
		hit()
	}
	if got := b.hits.Load() - bBefore; got != 10 {
		t.Errorf("recovered backend b served %d of 20, want 10", got)
	}

	// All backends drained: fail open rather than serve nothing.
	a.ready.Store(false)
	b.ready.Store(false)
	if healthy := rt.CheckHealth(context.Background()); healthy != 0 {
		t.Fatalf("healthy = %d, want 0", healthy)
	}
	total := a.hits.Load() + b.hits.Load()
	hit()
	if a.hits.Load()+b.hits.Load() != total+1 {
		t.Error("fully drained router did not fail open")
	}
}

// TestRouterRejectsBadBackends covers constructor validation.
func TestRouterRejectsBadBackends(t *testing.T) {
	if _, err := NewNamedRouter(nil, nil); err == nil {
		t.Error("empty backend list accepted")
	}
	if _, err := NewNamedRouter([]string{"not-a-url"}, map[string]string{"not-a-url": "x"}); err == nil {
		t.Error("relative backend URL accepted")
	}
}
