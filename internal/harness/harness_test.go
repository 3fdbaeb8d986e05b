package harness

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStartStop boots a stand-in daemon that prints the serving line
// and exits cleanly on SIGTERM.
func TestStartStop(t *testing.T) {
	d, err := Start(io.Discard, "fake", "/bin/sh", "-c",
		`trap 'exit 0' TERM; echo "marketd: serving on http://127.0.0.1:1"; while :; do sleep 0.05; done`)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if d.Base != "http://127.0.0.1:1" {
		t.Errorf("Base = %q", d.Base)
	}
	if err := Stop(d); err != nil {
		t.Errorf("Stop: %v", err)
	}
}

func TestStartExitBeforeServing(t *testing.T) {
	_, err := Start(io.Discard, "fake", "/bin/sh", "-c", "exit 3")
	if err == nil || !strings.Contains(err.Error(), "exited before serving") {
		t.Errorf("err = %v, want an exited-before-serving error", err)
	}
}

func TestFetch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"e1"`)
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, r.Method+" "+r.URL.Path)
	}))
	defer srv.Close()
	code, body, etag, err := Fetch(context.Background(), http.MethodPost, srv.URL, "/admin/rebuild")
	if err != nil || code != http.StatusTeapot || string(body) != "POST /admin/rebuild" || etag != `"e1"` {
		t.Errorf("Fetch = (%d, %q, %q, %v)", code, body, etag, err)
	}
}
