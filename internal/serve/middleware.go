package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
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
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
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
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	//lint:ignore ctxflow Shutdown has returned, so Serve has already unblocked: this receive is bounded, not cancellable
	<-errc // always http.ErrServerClosed after Shutdown
	return nil
}
