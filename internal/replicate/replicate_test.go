package replicate

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ipv4market/internal/store"
)

// newLeaderStore returns a store with n synthetic generations appended.
func newLeaderStore(t *testing.T, n int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		appendGen(t, st, i)
	}
	return st
}

// appendGen appends one synthetic generation; i varies the bodies so
// every generation's bytes differ.
func appendGen(t *testing.T, st *store.Store, i int) store.Meta {
	t.Helper()
	meta := store.Meta{
		Created: time.Date(2020, 1, 1+i, 0, 0, 0, 0, time.UTC),
		Seed:    int64(100 + i),
		NumLIRs: 5, RoutingDays: 7,
	}
	arts := []store.Artifact{
		{Key: "table1", ContentType: "application/json", ETag: fmt.Sprintf(`"t%d"`, i),
			Body: []byte(fmt.Sprintf(`{"table":%d}`, i))},
		{Key: "prices", ContentType: "application/json", ETag: fmt.Sprintf(`"p%d"`, i),
			Body: []byte(fmt.Sprintf(`{"prices":%d}`, i))},
	}
	meta, err := st.Append(meta, arts)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// leaderServer mounts the Leader handlers on an httptest server, with an
// optional middleware wrapping the segment handler for fault injection.
func leaderServer(t *testing.T, st *store.Store, segmentWrap func(http.Handler) http.Handler) (*httptest.Server, *Leader) {
	t.Helper()
	l := NewLeader(st)
	seg := http.Handler(l.Segment())
	if segmentWrap != nil {
		seg = segmentWrap(seg)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/replication/generations", l.Generations())
	mux.Handle("GET /v1/replication/segment/{gen}", seg)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, l
}

// newFollower returns a Replicator over a fresh store in its own temp
// dir, with an apply hook that records adopted metas.
func newFollower(t *testing.T, leaderURL string) (*Replicator, *store.Store, *[]store.Meta) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{LeaderURL: leaderURL, Store: st, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	applied := &[]store.Meta{}
	r.SetApply(func(m store.Meta) error {
		mu.Lock()
		defer mu.Unlock()
		*applied = append(*applied, m)
		return nil
	})
	return r, st, applied
}

func TestLeaderFollowerSync(t *testing.T) {
	leaderSt := newLeaderStore(t, 3)
	ts, l := leaderServer(t, leaderSt, nil)
	r, followerSt, applied := newFollower(t, ts.URL)

	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("first sync: %v", err)
	}

	gens := followerSt.Generations()
	if len(gens) != 3 {
		t.Fatalf("follower has %d generations, want 3", len(gens))
	}
	// Byte identity: every generation verifies and loads to the leader's
	// artifacts.
	for _, g := range gens {
		if err := followerSt.Verify(g.Gen); err != nil {
			t.Errorf("follower generation %d: %v", g.Gen, err)
		}
		_, wantArts, err := leaderSt.Load(g.Gen)
		if err != nil {
			t.Fatal(err)
		}
		_, gotArts, err := followerSt.Load(g.Gen)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotArts) != len(wantArts) {
			t.Fatalf("generation %d: %d artifacts, want %d", g.Gen, len(gotArts), len(wantArts))
		}
		for i := range wantArts {
			if string(gotArts[i].Body) != string(wantArts[i].Body) || gotArts[i].ETag != wantArts[i].ETag {
				t.Errorf("generation %d artifact %q differs after replication", g.Gen, wantArts[i].Key)
			}
		}
	}
	if len(*applied) != 1 || (*applied)[0].Gen != 3 {
		t.Fatalf("applied = %+v, want exactly the newest generation (3)", *applied)
	}

	st := r.Status()
	if st.Role != "follower" || st.LagGenerations != 0 || st.SegmentsFetched != 3 ||
		st.ConsecutiveFailures != 0 || st.LastError != "" || st.AppliedGen != 3 {
		t.Errorf("status after sync = %+v", st)
	}
	if st.BytesFetched == 0 {
		t.Error("BytesFetched = 0 after fetching three segments")
	}

	// A second sync is a no-op: nothing new to fetch, nothing re-applied.
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("idle sync: %v", err)
	}
	if got := r.Status().SegmentsFetched; got != 3 {
		t.Errorf("idle sync fetched segments: total %d, want 3", got)
	}
	if len(*applied) != 1 {
		t.Errorf("idle sync re-applied: %d applies, want 1", len(*applied))
	}

	// The leader moves on; the follower catches up and applies the new
	// generation.
	appendGen(t, leaderSt, 3)
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("catch-up sync: %v", err)
	}
	if latest, _ := followerSt.Latest(); latest.Gen != 4 {
		t.Errorf("follower latest = %d, want 4", latest.Gen)
	}
	if len(*applied) != 2 || (*applied)[1].Gen != 4 {
		t.Errorf("applied = %+v, want generations 3 then 4", *applied)
	}
	if followerSt.Stats().ImportedSegments != 4 {
		t.Errorf("ImportedSegments = %d, want 4", followerSt.Stats().ImportedSegments)
	}

	// Leader-side counters saw the traffic.
	ls := l.Status()
	if ls.Role != "leader" || ls.Listings < 3 || ls.SegmentsServed != 4 || ls.BytesShipped == 0 {
		t.Errorf("leader status = %+v", ls)
	}
}

func TestFollowerRetention(t *testing.T) {
	leaderSt := newLeaderStore(t, 4)
	ts, _ := leaderServer(t, leaderSt, nil)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{LeaderURL: ts.URL, Store: st, Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	gens := st.Generations()
	if len(gens) != 2 || gens[0].Gen != 3 || gens[1].Gen != 4 {
		t.Fatalf("after retention: %+v, want generations 3 and 4", gens)
	}
	// Compacted-away generations must not be re-fetched: they are older
	// than the follower's newest, not missing.
	before := r.Status().SegmentsFetched
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.Status().SegmentsFetched; got != before {
		t.Errorf("re-sync fetched %d more segments after retention", got-before)
	}
}

func TestFlippedBytesQuarantined(t *testing.T) {
	leaderSt := newLeaderStore(t, 1)
	var corrupt sync.Mutex
	flip := true
	ts, _ := leaderServer(t, leaderSt, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			corrupt.Lock()
			doFlip := flip
			corrupt.Unlock()
			if !doFlip {
				next.ServeHTTP(w, req)
				return
			}
			path, _ := leaderSt.SegmentPath(1)
			data, err := os.ReadFile(path)
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			data[len(data)/2] ^= 0x40 // flip one bit mid-file
			w.Write(data)
		})
	})
	r, followerSt, applied := newFollower(t, ts.URL)

	err := r.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("sync over a corrupting transport succeeded")
	}
	if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("error = %v, want a checksum mismatch", err)
	}
	if _, ok := followerSt.Latest(); ok {
		t.Fatal("corrupt download was installed")
	}
	if len(*applied) != 0 {
		t.Fatal("corrupt download was applied to the serving layer")
	}
	st := r.Status()
	if st.CorruptQuarantined != 1 || st.ConsecutiveFailures != 1 || st.LastError == "" {
		t.Errorf("status after corrupt download = %+v", st)
	}

	// The bytes are preserved for inspection under quarantine/ ...
	qdir := filepath.Join(followerSt.Dir(), "quarantine")
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("quarantine dir: entries=%v err=%v, want exactly one file", entries, err)
	}
	if !strings.HasPrefix(entries[0].Name(), "gen-1.") || !strings.HasSuffix(entries[0].Name(), ".corrupt") {
		t.Errorf("quarantine file name %q", entries[0].Name())
	}
	// ... and a store reopened over the follower dir ignores them.
	reopened, err := store.Open(followerSt.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Stats().Segments; got != 0 {
		t.Errorf("reopened follower store has %d segments, want 0", got)
	}

	// Transport heals; the retry succeeds and serves.
	corrupt.Lock()
	flip = false
	corrupt.Unlock()
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("retry after heal: %v", err)
	}
	if latest, ok := followerSt.Latest(); !ok || latest.Gen != 1 {
		t.Fatalf("follower did not recover: latest=%v ok=%v", latest, ok)
	}
	if len(*applied) != 1 {
		t.Errorf("applied %d generations after recovery, want 1", len(*applied))
	}
}

// truncateWriter cuts the response body after allow bytes; the mismatch
// with the already-sent Content-Length makes the server close the
// connection mid-body, which the client sees as an unexpected EOF.
type truncateWriter struct {
	http.ResponseWriter
	allow int
}

func (t *truncateWriter) Write(p []byte) (int, error) {
	if t.allow <= 0 {
		return 0, errors.New("injected truncation")
	}
	if len(p) > t.allow {
		p = p[:t.allow]
	}
	n, err := t.ResponseWriter.Write(p)
	t.allow -= n
	if err == nil && t.allow <= 0 {
		err = errors.New("injected truncation")
	}
	return n, err
}

func TestTruncatedStreamResumed(t *testing.T) {
	leaderSt := newLeaderStore(t, 1)
	info, _ := leaderSt.Generation(1)
	cut := int(info.Bytes) / 2

	var mu sync.Mutex
	truncateNext := true
	var sawRange []string
	var statuses []int
	ts, _ := leaderServer(t, leaderSt, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			mu.Lock()
			doCut := truncateNext
			truncateNext = false
			sawRange = append(sawRange, req.Header.Get("Range"))
			mu.Unlock()
			rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
			if doCut {
				next.ServeHTTP(&truncateWriter{ResponseWriter: rec, allow: cut}, req)
			} else {
				next.ServeHTTP(rec, req)
			}
			mu.Lock()
			statuses = append(statuses, rec.code)
			mu.Unlock()
		})
	})
	r, followerSt, _ := newFollower(t, ts.URL)

	err := r.SyncOnce(context.Background())
	if err == nil {
		t.Fatal("sync over a truncating transport succeeded")
	}
	if !strings.Contains(err.Error(), "transfer broke") && !strings.Contains(err.Error(), "short transfer") {
		t.Errorf("error = %v, want a truncation failure", err)
	}
	if _, ok := followerSt.Latest(); ok {
		t.Fatal("truncated download was installed")
	}
	if got := len(r.partial); got == 0 || got >= int(info.Bytes) {
		t.Fatalf("partial state holds %d bytes, want a strict prefix of %d", got, info.Bytes)
	}

	// The retry resumes with a Range request and completes the segment.
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("resume sync: %v", err)
	}
	if err := followerSt.Verify(1); err != nil {
		t.Fatalf("resumed segment does not verify: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sawRange) != 2 || sawRange[0] != "" || !strings.HasPrefix(sawRange[1], "bytes=") {
		t.Errorf("Range headers across attempts = %q, want none then bytes=...", sawRange)
	}
	if len(statuses) != 2 || statuses[1] != http.StatusPartialContent {
		t.Errorf("segment response statuses = %v, want the resume answered 206", statuses)
	}
}

// statusRecorder captures the status code written through it.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

func TestLeaderErrorsBackOff(t *testing.T) {
	leaderSt := newLeaderStore(t, 2)
	ts, _ := leaderServer(t, leaderSt, nil)
	r, followerSt, _ := newFollower(t, ts.URL)
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The leader starts failing; the follower records failures but keeps
	// its generations.
	fail := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer fail.Close()
	r.opts.LeaderURL = fail.URL

	for i := 1; i <= 3; i++ {
		if err := r.SyncOnce(context.Background()); err == nil {
			t.Fatalf("sync %d against a 500ing leader succeeded", i)
		}
		if got := r.Status().ConsecutiveFailures; got != i {
			t.Errorf("after failure %d: ConsecutiveFailures = %d", i, got)
		}
	}
	if latest, ok := followerSt.Latest(); !ok || latest.Gen != 2 {
		t.Errorf("follower lost its generations during the outage: %v %v", latest, ok)
	}
	if got := r.Status().FetchErrors; got != 3 {
		t.Errorf("FetchErrors = %d, want 3", got)
	}

	// The leader recovers; one sync resets the failure state.
	r.opts.LeaderURL = ts.URL
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if st.ConsecutiveFailures != 0 || st.BackoffSeconds != 0 || st.LastError != "" {
		t.Errorf("status after recovery = %+v", st)
	}
}

func TestLeaderRestartWithHigherGens(t *testing.T) {
	dir := t.TempDir()
	leaderSt, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendGen(t, leaderSt, 0)
	appendGen(t, leaderSt, 1)
	ts, _ := leaderServer(t, leaderSt, nil)
	r, followerSt, applied := newFollower(t, ts.URL)
	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// The leader restarts over the same directory: its ID ratchet
	// continues above every shipped generation.
	leaderSt2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendGen(t, leaderSt2, 2)
	ts2, _ := leaderServer(t, leaderSt2, nil)
	r.opts.LeaderURL = ts2.URL

	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("sync after leader restart: %v", err)
	}
	if latest, _ := followerSt.Latest(); latest.Gen != 3 {
		t.Errorf("follower latest = %d, want 3 (post-restart generation)", latest.Gen)
	}
	if n := len(*applied); n != 2 || (*applied)[n-1].Gen != 3 {
		t.Errorf("applied = %+v, want generation 2 then 3", *applied)
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	r, err := New(Options{
		LeaderURL: "http://unused.test",
		Store:     mustOpen(t),
		Interval:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for failures := 1; failures <= 10; failures++ {
		for trial := 0; trial < 50; trial++ {
			d := r.backoffDelay(failures)
			if d < 750*time.Millisecond {
				t.Fatalf("failures=%d: delay %v below jittered minimum", failures, d)
			}
			if d > maxBackoff*5/4 {
				t.Fatalf("failures=%d: delay %v above jittered cap", failures, d)
			}
		}
	}
	// Backoff must actually grow with consecutive failures (modulo
	// jitter): the un-jittered base doubles until the cap.
	if d1, d4 := r.backoffDelay(1), r.backoffDelay(6); d4 < d1 {
		// Jitter is ±25%, growth is 2^5: d4 must exceed d1 at these
		// failure counts whatever the jitter draws.
		t.Errorf("backoff did not grow: failures=1 → %v, failures=6 → %v", d1, d4)
	}
}

func mustOpen(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{Store: mustOpen(t)}); err == nil {
		t.Error("missing LeaderURL accepted")
	}
	if _, err := New(Options{LeaderURL: "http://x.test"}); err == nil {
		t.Error("missing Store accepted")
	}
}

func TestSyncCancelled(t *testing.T) {
	// A follower whose context is cancelled fails promptly instead of
	// hanging on a dead leader.
	ln := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		<-req.Context().Done()
	}))
	defer ln.Close()
	r, _, _ := newFollower(t, ln.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.SyncOnce(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled sync reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled sync did not return")
	}
}

// TestRunStopsOnCancel is TestSyncCancelled for the polling loop: with
// an hour between polls, Run waits on its timer after the first sync,
// and cancelling must end that wait rather than the next poll.
func TestRunStopsOnCancel(t *testing.T) {
	leaderSt := newLeaderStore(t, 1)
	ts, _ := leaderServer(t, leaderSt, nil)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Options{LeaderURL: ts.URL, Store: st, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan struct{}, 1)
	r.SetApply(func(store.Meta) error {
		synced <- struct{}{}
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		r.Run(ctx)
		close(done)
	}()
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not complete its first sync")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestReadyCheckLagGate pins the follower readiness contract cmd/marketd
// wires behind -max-lag: unready before the first successful sync, ready
// once caught up, unready again when generation lag exceeds the bound,
// and unready when the last success is older than the staleness bound.
func TestReadyCheckLagGate(t *testing.T) {
	leaderSt := newLeaderStore(t, 2)
	ts, _ := leaderServer(t, leaderSt, nil)
	r, _, _ := newFollower(t, ts.URL)

	genCheck := r.ReadyCheck(0, 0)
	if err := genCheck(); err == nil {
		t.Error("never-synced follower reported ready")
	} else if !strings.Contains(err.Error(), "no successful sync") {
		t.Errorf("never-synced reason = %v", err)
	}

	if err := r.SyncOnce(context.Background()); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if gens, since, ok := r.Lag(); !ok || gens != 0 || since < 0 {
		t.Errorf("Lag() after full sync = (%d, %v, %v), want (0, >=0, true)", gens, since, ok)
	}
	if err := genCheck(); err != nil {
		t.Errorf("caught-up follower unready: %v", err)
	}

	// Simulate observed-but-unimported generations (what syncOnce records
	// after listing and before each install).
	r.mu.Lock()
	r.status.LagGenerations = 3
	r.mu.Unlock()
	if err := genCheck(); err == nil {
		t.Error("lagging follower (3 > max 0) reported ready")
	} else if !strings.Contains(err.Error(), "3 generation(s)") {
		t.Errorf("lag reason = %v", err)
	}
	if err := r.ReadyCheck(3, 0)(); err != nil {
		t.Errorf("lag 3 within max 3 reported unready: %v", err)
	}
	if err := r.ReadyCheck(-1, 0)(); err != nil {
		t.Errorf("negative maxGens must disable the generation bound: %v", err)
	}

	// Staleness: age the last success past the bound.
	r.mu.Lock()
	r.status.LagGenerations = 0
	r.lastSuccessAt = time.Now().Add(-time.Hour)
	r.mu.Unlock()
	if err := r.ReadyCheck(-1, time.Minute)(); err == nil {
		t.Error("stale follower (1h > max 1m) reported ready")
	} else if !strings.Contains(err.Error(), "exceeds max") {
		t.Errorf("staleness reason = %v", err)
	}
	if err := r.ReadyCheck(-1, 2*time.Hour)(); err != nil {
		t.Errorf("staleness within bound reported unready: %v", err)
	}
}
