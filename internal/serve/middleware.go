package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Wrap layers the shared serving middleware around a handler:
//
//	instrument(recovery(timeout(h)))
//
// Instrumentation is outermost so it observes the final status
// (including 500s from the recovery layer); recovery sits outside the
// timeout layer so it catches panics from the wrapped handler. A
// non-positive timeout disables the timeout layer (admin endpoints and
// segment streaming use that).
//
// The timeout layer is deadline-based, not http.TimeoutHandler:
// TimeoutHandler buffers the entire response body in memory before
// writing it, which would put a per-request copy of every artifact body
// back on the heap (and rule out sendfile). Instead the request
// context gets a deadline — every handler doing cancellable work reads
// it — and the connection gets a write deadline covering the response,
// so a stalled client cannot pin the connection either.
//
// cmd/marketd and cmd/rdapd share this stack; neither duplicates it.
func Wrap(h http.Handler, m *Metrics, route string, timeout time.Duration) http.Handler {
	if timeout > 0 {
		h = timeoutLayer(h, timeout)
	}
	h = recovery(m, h)
	if m != nil {
		h = m.instrument(route, h)
	}
	return h
}

// timeoutLayer bounds a request without buffering its response: the
// handler sees a context that expires after timeout, and the underlying
// connection gets a write deadline so the response bytes — streamed
// straight from a segment file on the zero-copy path — must also finish
// by then. Writers that do not support deadlines (test recorders) just
// skip that half.
func timeoutLayer(h http.Handler, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		// Best-effort: httptest recorders and exotic writers return
		// ErrNotSupported, which leaves only the context deadline.
		_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(timeout))
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// recovery converts handler panics into 500 responses instead of killing
// the connection, and counts them. http.ErrAbortHandler is re-raised: it
// is the sanctioned way to abort a response and net/http handles it.
func recovery(m *Metrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec) //lint:ignore bannedcall re-raising http.ErrAbortHandler is the contract net/http expects
			}
			if m != nil {
				m.panics.Add(1)
			}
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
		}()
		h.ServeHTTP(w, r)
	})
}

// Serve runs srv on ln until ctx is cancelled, then shuts down
// gracefully, giving in-flight requests up to drain to finish. It returns
// nil on a clean shutdown and the serve or shutdown error otherwise.
//
// Connections a client dialed but never sent a request on are closed as
// soon as shutdown starts: net/http counts such a connection as active
// for its first 5 seconds, so one idle pre-connect (a load balancer's or
// a proxy transport's) would otherwise hold Shutdown until the drain
// deadline and fail it. Serve takes over srv.ConnState for this, calling
// any hook already set.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	fresh := trackFresh(srv)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.Serve(ln) // coordinated: result drained via errc below
	}()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	case <-ctx.Done():
	}
	fresh.closeAll()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	//lint:ignore ctxflow Shutdown has returned, so Serve has already unblocked: this receive is bounded, not cancellable
	<-errc // always http.ErrServerClosed after Shutdown
	return nil
}

// freshConns is the set of a server's connections still in
// http.StateNew: accepted, with no request read yet.
type freshConns struct {
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool // shutdown has started: close new connections on arrival
}

// trackFresh hooks srv.ConnState to keep the set of srv's fresh
// connections.
func trackFresh(srv *http.Server) *freshConns {
	f := &freshConns{conns: make(map[net.Conn]struct{})}
	prev := srv.ConnState
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		f.mu.Lock()
		switch {
		case st != http.StateNew:
			delete(f.conns, c)
		case f.closing:
			c.Close()
		default:
			f.conns[c] = struct{}{}
		}
		f.mu.Unlock()
		if prev != nil {
			prev(c, st)
		}
	}
	return f
}

// closeAll closes every fresh connection, and every one accepted from
// now on before it reads a request.
func (f *freshConns) closeAll() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closing = true
	for c := range f.conns {
		c.Close()
	}
	clear(f.conns)
}
