package serve_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipv4market/internal/serve"
	"ipv4market/internal/store"
)

// TestETagIsCRC32AndLength pins the form of every strong ETag the
// server derives: the body's IEEE CRC-32 in eight hex digits, a dash and
// the body's length in decimal, quoted. It checks an empty body, a
// one-byte body and the DefaultConfig world's /v1/transfers body, and
// that flipping one bit of each non-empty body changes its tag.
func TestETagIsCRC32AndLength(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	rec := httptest.NewRecorder()
	productionWorlds(t)[0].srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/transfers", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() < 900_000 {
		t.Fatalf("/v1/transfers: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if got := rec.Header().Get("ETag"); got != serve.ETagOf(rec.Body.Bytes()) {
		t.Errorf("/v1/transfers served ETag %s, body derives %s", got, serve.ETagOf(rec.Body.Bytes()))
	}
	for name, body := range map[string][]byte{
		"empty":     {},
		"one byte":  {'x'},
		"transfers": rec.Body.Bytes(),
	} {
		want := fmt.Sprintf(`"%08x-%d"`, crc32.ChecksumIEEE(body), len(body))
		if got := serve.ETagOf(body); got != want {
			t.Errorf("%s (%d bytes): ETag %s, want %s", name, len(body), got, want)
		}
		if len(body) == 0 {
			continue
		}
		flipped := bytes.Clone(body)
		flipped[len(flipped)/2] ^= 0x10
		if serve.ETagOf(flipped) == serve.ETagOf(body) {
			t.Errorf("%s: a one-bit flip keeps ETag %s", name, serve.ETagOf(body))
		}
	}
}

// TestLegacyETagStore proves that a store written before tags took the
// CRC-32 form still serves. Two stores get the same DefaultConfig
// generations: one as this build writes them, one with every served
// body's tag in the earlier 64-bit FNV-1a form (bodyFingerprint). The
// legacy store's server must warm-start, adopt a second generation and
// answer static and as-of paths, live and under ?gen=, with the bodies
// and current-form tags of the server over the current store. A
// current-form tag that contradicts its body is still refused.
func TestLegacyETagStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	world := productionWorlds(t)[0]
	meta, arts, err := serve.SnapshotRecord(world.srv.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	legacy := make([]store.Artifact, len(arts))
	tagged := -1 // index of the first artifact with a served tag
	for i, a := range arts {
		legacy[i] = a
		if a.ETag != "" {
			legacy[i].ETag = bodyFingerprint(a.Body)
			if tagged < 0 {
				tagged = i
			}
		}
	}
	if tagged < 0 {
		t.Fatal("the generation has no tagged artifact")
	}

	current, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	appendGen := func(st *store.Store, arts []store.Artifact, want uint64) {
		t.Helper()
		if m, err := st.Append(meta, arts); err != nil || m.Gen != want {
			t.Fatalf("append: generation %d, %v; want %d", m.Gen, err, want)
		}
	}
	appendGen(current, arts, 1)
	appendGen(old, legacy, 1)
	ref, err := serve.New(world.cfg, serve.Options{Store: current})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(world.cfg, serve.Options{Store: old})
	if err != nil {
		t.Fatalf("warm start over legacy tags: %v", err)
	}
	if !srv.WarmStarted() || srv.Snapshot().Gen != 1 {
		t.Fatalf("serving generation %d (warm start %v), want a restored generation 1", srv.Snapshot().Gen, srv.WarmStarted())
	}
	appendGen(current, arts, 2)
	appendGen(old, legacy, 2)
	if err := ref.AdoptGeneration(2); err != nil {
		t.Fatal(err)
	}
	if err := srv.AdoptGeneration(2); err != nil {
		t.Fatalf("adopt legacy generation 2: %v", err)
	}

	paths := []string{
		"/v1/table1", "/v1/table1?format=csv", "/v1/figures/1", "/v1/figures/4",
		"/v1/prices", "/v1/prices?format=csv", "/v1/transfers", "/v1/delegations",
		"/v1/leasing", "/v1/headline", "/v1/utilization", "/v1/rpki",
		"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
		"/v1/asof/timeline?prefix=185.0.0.0/16",
		"/v1/asof/diff?from=2018-01-01&to=2018-06-30",
	}
	for _, path := range paths {
		for _, pin := range []string{"", "gen=1", "gen=2"} {
			p := path
			switch {
			case pin == "":
			case strings.Contains(p, "?"):
				p += "&" + pin
			default:
				p += "?" + pin
			}
			want, wantETag := fetch(t, ref.Handler(), p)
			got, etag := fetch(t, srv.Handler(), p)
			if !bytes.Equal(got, want) || etag != wantETag {
				t.Errorf("%s: legacy store served %d bytes tagged %s, want %d bytes tagged %s", p, len(got), etag, len(want), wantETag)
			}
			if etag != serve.ETagOf(got) {
				t.Errorf("%s: ETag %s, body derives %s", p, etag, serve.ETagOf(got))
			}
		}
	}

	// A current-form tag must still match its body.
	bad := append([]store.Artifact(nil), legacy...)
	bad[tagged].ETag = serve.ETagOf(append(bytes.Clone(bad[tagged].Body), '\n'))
	appendGen(old, bad, 3)
	if err := srv.AdoptGeneration(3); err == nil {
		t.Error("adopted a generation whose tag contradicts its body")
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/table1?gen=3", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("/v1/table1?gen=3 over a contradicting tag: status %d, want 500", rec.Code)
	}
}

// fetch answers path through h, failing the test on anything but 200.
func fetch(t *testing.T, h http.Handler, path string) ([]byte, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes(), rec.Header().Get("ETag")
}
