package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"time"
)

// Backend is one routed-to server and its per-backend accounting.
type Backend struct {
	name string
	url  *url.URL

	healthy   atomic.Bool
	forwarded atomic.Int64
}

// Name returns the backend's label.
func (b *Backend) Name() string { return b.name }

// Forwarded returns how many requests the router sent this backend.
func (b *Backend) Forwarded() int64 { return b.forwarded.Load() }

// Router is a round-robin HTTP reverse proxy over a fixed backend set —
// the loopback stand-in for the load balancer in front of a replica
// fleet. Backends that fail their /readyz check are drained (skipped by
// the rotation) until a later check passes; with every backend drained
// the router fails open and rotates over all of them, because serving
// stale data beats serving nothing.
type Router struct {
	backends  []*Backend
	next      atomic.Uint64
	proxy     *httputil.ReverseProxy
	transport *http.Transport // the proxy's, shared by the health probes
}

// NewNamedRouter returns a router over the given base URLs (e.g.
// "http://127.0.0.1:34001"), each labelled in reports by its entry in
// names ("leader", "follower1", ...).
func NewNamedRouter(targets []string, names map[string]string) (*Router, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("loadgen: router needs at least one backend")
	}
	rt := &Router{transport: http.DefaultTransport.(*http.Transport).Clone()}
	for _, t := range targets {
		u, err := url.Parse(t)
		if err != nil {
			return nil, fmt.Errorf("loadgen: router backend %q: %w", t, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("loadgen: router backend %q: want an absolute base URL", t)
		}
		b := &Backend{name: names[t], url: u}
		b.healthy.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.proxy = &httputil.ReverseProxy{
		Transport: rt.transport,
		Rewrite: func(pr *httputil.ProxyRequest) {
			b := rt.pick()
			b.forwarded.Add(1)
			// Backend URLs are bare scheme://host:port bases, so SetURL
			// keeps the inbound path and query intact.
			pr.SetURL(b.url)
		},
		ErrorHandler: func(w http.ResponseWriter, _ *http.Request, err error) {
			http.Error(w, fmt.Sprintf(`{"error":"router: %v"}`, err), http.StatusBadGateway)
		},
	}
	return rt, nil
}

// CloseIdleConnections closes the router's idle backend connections.
// Call it before stopping the backends: the proxy's transport can hold
// a connection it dialed but never used, and net/http counts such a
// connection as active for 5 s, holding up the backend's graceful
// shutdown.
func (rt *Router) CloseIdleConnections() { rt.transport.CloseIdleConnections() }

// ServeHTTP proxies one request to the next healthy backend.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.proxy.ServeHTTP(w, r)
}

// pick returns the next backend in rotation, skipping drained ones.
// When everything is drained it fails open and ignores health.
func (rt *Router) pick() *Backend {
	n := len(rt.backends)
	start := rt.next.Add(1)
	for i := 0; i < n; i++ {
		b := rt.backends[(int(start)+i)%n]
		if b.healthy.Load() {
			return b
		}
	}
	return rt.backends[int(start)%n]
}

// Backends returns the router's backends in declaration order.
func (rt *Router) Backends() []*Backend { return rt.backends }

// CheckHealth probes every backend's /readyz once: 200 keeps (or
// restores) the backend in rotation, anything else — including a
// follower answering 503 because its replication lag exceeds -max-lag —
// drains it. Returns the number of healthy backends.
func (rt *Router) CheckHealth(ctx context.Context) int {
	healthy := 0
	for _, b := range rt.backends {
		ok := rt.probe(ctx, b)
		b.healthy.Store(ok)
		if ok {
			healthy++
		}
	}
	return healthy
}

// HealthLoop runs CheckHealth every interval until ctx is cancelled.
// Run it on its own goroutine alongside the router's listener.
func (rt *Router) HealthLoop(ctx context.Context, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			rt.CheckHealth(ctx)
		}
	}
}

// probe is one backend's readiness check.
func (rt *Router) probe(ctx context.Context, b *Backend) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url.String()+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.transport.RoundTrip(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
