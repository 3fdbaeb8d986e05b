package replicate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ipv4market/internal/store"
)

const (
	// requestTimeout bounds each HTTP request, listing or segment.
	requestTimeout = 30 * time.Second
	// maxBackoff caps the failure backoff.
	maxBackoff = 30 * time.Second
)

// decodeJSONBody decodes a bounded JSON document; the listing is small,
// so 8 MiB is a generous ceiling that still stops a runaway body.
func decodeJSONBody(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, 8<<20)).Decode(v)
}

// Options configures a follower Replicator.
type Options struct {
	// LeaderURL is the leader's base URL, e.g. "http://leader:8080".
	LeaderURL string
	// Store is the follower's local segment store. Required.
	Store *store.Store
	// Interval is the steady-state poll period (default 5s).
	Interval time.Duration
	// Keep, when positive, applies retention after each sync so the
	// follower's store tracks the leader's compaction policy.
	Keep int
	// Logf, when set, receives one line per notable event (sync results,
	// quarantines, backoff transitions).
	Logf func(format string, args ...any)
}

// Apply is the hook a Replicator calls after installing new generations:
// it hands the newest local generation to the serving layer for a hot
// swap. An Apply error fails the sync (the segment stays imported and
// apply is retried next round).
type Apply func(store.Meta) error

// FollowerStatus is the follower's replication state as exported on
// /varz and asserted by the e2e tests.
type FollowerStatus struct {
	Role      string `json:"role"`
	LeaderURL string `json:"leader_url"`

	LastSync    string `json:"last_sync,omitempty"`    // last attempt, RFC3339
	LastSuccess string `json:"last_success,omitempty"` // last full sync, RFC3339
	LastError   string `json:"last_error,omitempty"`   // "" after a success

	// LagGenerations is how many of the leader's listed generations the
	// follower had not yet imported at the last poll; 0 when in sync.
	LagGenerations int `json:"lag_generations"`
	// AppliedGen is the generation the serving layer last adopted.
	AppliedGen uint64 `json:"applied_gen"`

	Polls               int64 `json:"polls"`
	SegmentsFetched     int64 `json:"segments_fetched"`
	BytesFetched        int64 `json:"bytes_fetched"`
	FetchErrors         int64 `json:"fetch_errors"`
	CorruptQuarantined  int64 `json:"corrupt_quarantined"`
	ConsecutiveFailures int   `json:"consecutive_failures"`
	// BackoffSeconds is the delay before the next retry when the last
	// sync failed, 0 when healthy.
	BackoffSeconds float64 `json:"backoff_seconds"`
}

// Replicator is the follower side: a poll loop that mirrors a leader's
// sealed segments into the local store and hands new generations to the
// serving layer.
type Replicator struct {
	opts Options

	mu     sync.Mutex
	apply  Apply
	status FollowerStatus
	jitter xorshift64
	// lastSuccessAt is the monotonic-clock twin of status.LastSuccess:
	// readiness math needs a time.Time to subtract, not an RFC3339
	// string. Zero until the first full sync.
	lastSuccessAt time.Time

	// partial download state: bytes already received for a generation
	// whose transfer broke mid-stream, resumable while the leader's ETag
	// for that segment is unchanged.
	partial     []byte
	partialGen  uint64
	partialETag string
}

// New returns a follower Replicator for opts. It does not start the
// loop; call Run (or SyncOnce for a single pass).
func New(opts Options) (*Replicator, error) {
	if opts.LeaderURL == "" {
		return nil, errors.New("replicate: Options.LeaderURL is required")
	}
	if opts.Store == nil {
		return nil, errors.New("replicate: Options.Store is required")
	}
	if opts.Interval <= 0 {
		opts.Interval = 5 * time.Second
	}
	r := &Replicator{opts: opts}
	r.jitter.seed(uint64(time.Now().UnixNano()))
	r.status.Role = "follower"
	r.status.LeaderURL = opts.LeaderURL
	return r, nil
}

// SetApply installs the serving-layer hook. Safe to call before Run.
func (r *Replicator) SetApply(fn Apply) {
	r.mu.Lock()
	r.apply = fn
	r.mu.Unlock()
}

// Status returns a point-in-time copy of the follower's state.
func (r *Replicator) Status() FollowerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Varz adapts Status for serve.Options.ReplicationVarz.
func (r *Replicator) Varz() any { return r.Status() }

// Lag reports how far this follower trails the leader: the number of
// listed-but-unimported generations at the last poll, and how long ago
// the last fully successful sync finished (0 if none has succeeded
// yet — the ok result distinguishes "never synced" from "just synced").
func (r *Replicator) Lag() (generations int, sinceSuccess time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastSuccessAt.IsZero() {
		return r.status.LagGenerations, 0, false
	}
	return r.status.LagGenerations, time.Since(r.lastSuccessAt), true
}

// ReadyCheck returns a readiness gate for serve.Options.ReadyCheck: it
// fails while the follower has never completed a sync, while its
// generation lag exceeds maxGens (ignored when negative), or while its
// last successful sync is older than maxAge (ignored when zero or
// negative). A router polling /readyz then drains a stale follower
// until it catches up — the follower keeps serving its last adopted
// snapshot to direct clients either way.
func (r *Replicator) ReadyCheck(maxGens int, maxAge time.Duration) func() error {
	return func() error {
		gens, since, ok := r.Lag()
		if !ok {
			return errors.New("replication: no successful sync yet")
		}
		if maxGens >= 0 && gens > maxGens {
			return fmt.Errorf("replication lag %d generation(s) exceeds max %d", gens, maxGens)
		}
		if maxAge > 0 && since > maxAge {
			return fmt.Errorf("last successful sync %s ago exceeds max %s",
				since.Round(time.Second), maxAge)
		}
		return nil
	}
}

func (r *Replicator) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Run polls the leader until ctx is cancelled: Interval between
// successful syncs, exponential backoff with jitter after failures.
func (r *Replicator) Run(ctx context.Context) {
	timer := time.NewTimer(0) // first sync immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		err := r.SyncOnce(ctx)
		delay := r.opts.Interval
		if err != nil && ctx.Err() == nil {
			r.mu.Lock()
			failures := r.status.ConsecutiveFailures
			r.mu.Unlock()
			delay = r.backoffDelay(failures)
			r.mu.Lock()
			r.status.BackoffSeconds = delay.Seconds()
			r.mu.Unlock()
			r.logf("replicate: sync failed (attempt %d, retry in %s): %v", failures, delay.Round(time.Millisecond), err)
		}
		timer.Reset(delay)
	}
}

// backoffDelay computes the retry delay after `failures` consecutive
// failed syncs: Interval doubled per failure, capped at maxBackoff,
// with ±25% jitter so a follower fleet does not stampede a recovering
// leader.
func (r *Replicator) backoffDelay(failures int) time.Duration {
	d := r.opts.Interval
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	for i := 1; i < failures && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// jitter in [0.75d, 1.25d)
	r.mu.Lock()
	j := r.jitter.next()
	r.mu.Unlock()
	spread := d / 2
	if spread > 0 {
		d = d - spread/2 + time.Duration(j%uint64(spread))
	}
	return d
}

// SyncOnce performs one replication pass: list the leader's generations,
// download and install the ones the local store is missing (ascending),
// apply retention, and hand the newest generation to the serving layer.
// It returns nil only when the follower is fully caught up and applied.
func (r *Replicator) SyncOnce(ctx context.Context) error {
	r.mu.Lock()
	r.status.Polls++
	r.status.LastSync = time.Now().UTC().Format(time.RFC3339)
	r.mu.Unlock()

	err := r.syncOnce(ctx)

	r.mu.Lock()
	if err != nil {
		r.status.ConsecutiveFailures++
		r.status.LastError = err.Error()
	} else {
		now := time.Now()
		r.status.ConsecutiveFailures = 0
		r.status.BackoffSeconds = 0
		r.status.LastError = ""
		r.status.LastSuccess = now.UTC().Format(time.RFC3339)
		r.lastSuccessAt = now
	}
	r.mu.Unlock()
	return err
}

func (r *Replicator) syncOnce(ctx context.Context) error {
	listing, err := r.fetchListing(ctx)
	if err != nil {
		return err
	}

	localMax := uint64(0)
	if latest, ok := r.opts.Store.Latest(); ok {
		localMax = latest.Gen
	}

	// Only generations newer than everything we have: older listed gens
	// we lack were dropped locally by retention, not lost.
	var missing []GenEntry
	for _, e := range listing.Generations {
		if e.Gen > localMax {
			missing = append(missing, e)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Gen < missing[j].Gen })

	r.mu.Lock()
	r.status.LagGenerations = len(missing)
	r.mu.Unlock()

	for _, e := range missing {
		if err := r.fetchAndInstall(ctx, e); err != nil {
			return err
		}
		r.mu.Lock()
		r.status.LagGenerations--
		r.mu.Unlock()
	}

	if r.opts.Keep > 0 {
		if _, err := r.opts.Store.CompactTo(r.opts.Keep); err != nil {
			return fmt.Errorf("replicate: retention: %w", err)
		}
	}

	// Apply the newest local generation if the serving layer has not
	// adopted it yet (covers both fresh imports and a previously failed
	// apply).
	r.mu.Lock()
	apply := r.apply
	applied := r.status.AppliedGen
	r.mu.Unlock()
	if apply != nil {
		if latest, ok := r.opts.Store.Latest(); ok && latest.Gen > applied {
			if err := apply(latest.Meta); err != nil {
				return fmt.Errorf("replicate: apply generation %d: %w", latest.Gen, err)
			}
			r.mu.Lock()
			r.status.AppliedGen = latest.Gen
			r.mu.Unlock()
			r.logf("replicate: serving generation %d", latest.Gen)
		}
	}
	return nil
}

// fetchListing GETs and decodes the leader's generation listing.
func (r *Replicator) fetchListing(ctx context.Context) (*Listing, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.LeaderURL+"/v1/replication/generations", nil)
	if err != nil {
		return nil, fmt.Errorf("replicate: build listing request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.countFetchError()
		return nil, fmt.Errorf("replicate: list generations: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.countFetchError()
		return nil, fmt.Errorf("replicate: list generations: leader answered %s", resp.Status)
	}
	var listing Listing
	if err := decodeJSONBody(resp.Body, &listing); err != nil {
		r.countFetchError()
		return nil, fmt.Errorf("replicate: decode listing: %w", err)
	}
	return &listing, nil
}

// fetchAndInstall downloads one generation, verifies it end to end, and
// installs it into the local store. Partial transfers are kept and
// resumed with a Range request while the leader's ETag is unchanged;
// bytes that fail verification are quarantined, never installed.
func (r *Replicator) fetchAndInstall(ctx context.Context, e GenEntry) error {
	data, err := r.download(ctx, e)
	if err != nil {
		return err
	}

	// Transport-level integrity first: the listing's whole-file CRC.
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)); got != e.CRC32 {
		r.quarantine(e.Gen, data, fmt.Sprintf("crc32 %s, leader listed %s", got, e.CRC32))
		return fmt.Errorf("replicate: generation %d: download checksum mismatch (got %s, want %s)", e.Gen, got, e.CRC32)
	}

	// Structural integrity + install: ImportSegment re-verifies every
	// frame CRC and the footer before the atomic rename.
	if _, err := r.opts.Store.ImportSegment(e.Gen, data); err != nil {
		if store.IsCorrupt(err) {
			r.quarantine(e.Gen, data, err.Error())
		}
		return fmt.Errorf("replicate: install generation %d: %w", e.Gen, err)
	}

	r.mu.Lock()
	r.status.SegmentsFetched++
	r.status.BytesFetched += int64(len(data))
	r.mu.Unlock()
	r.logf("replicate: installed generation %d (%d bytes)", e.Gen, len(data))
	return nil
}

// download returns the full segment body for e, resuming a prior
// partial transfer when possible. On a mid-stream failure the received
// prefix is kept for the next attempt.
func (r *Replicator) download(ctx context.Context, e GenEntry) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()

	r.mu.Lock()
	resume := r.partialGen == e.Gen && r.partialETag == e.ETag &&
		int64(len(r.partial)) > 0 && int64(len(r.partial)) < e.Bytes
	if !resume {
		r.partial, r.partialGen, r.partialETag = nil, 0, ""
	}
	offset := int64(len(r.partial))
	r.mu.Unlock()

	url := fmt.Sprintf("%s/v1/replication/segment/%d", r.opts.LeaderURL, e.Gen)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("replicate: build segment request: %w", err)
	}
	if resume {
		// If-Range makes the resume safe: a leader whose segment bytes
		// changed (impossible for a sealed gen, but belts and braces)
		// answers 200 with the full body instead of a mismatched tail.
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
		req.Header.Set("If-Range", e.ETag)
	}

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.countFetchError()
		return nil, fmt.Errorf("replicate: fetch generation %d: %w", e.Gen, err)
	}
	defer resp.Body.Close()

	var buf []byte
	switch {
	case resp.StatusCode == http.StatusOK:
		buf = nil // full body: any partial state is superseded
	case resp.StatusCode == http.StatusPartialContent && resume:
		r.mu.Lock()
		buf = r.partial
		r.mu.Unlock()
		r.logf("replicate: resuming generation %d at byte %d", e.Gen, offset)
	case resp.StatusCode == http.StatusRequestedRangeNotSatisfiable:
		// Our partial state disagrees with the leader; start over clean.
		r.dropPartial()
		r.countFetchError()
		return nil, fmt.Errorf("replicate: fetch generation %d: leader rejected resume range", e.Gen)
	default:
		r.countFetchError()
		return nil, fmt.Errorf("replicate: fetch generation %d: leader answered %s", e.Gen, resp.Status)
	}

	// Bound the read by the listed size: a body larger than advertised
	// can never verify, so don't buffer it.
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, e.Bytes-int64(len(buf))+1))
	buf = append(buf, body...)

	if readErr != nil {
		// Truncated mid-stream: keep the prefix for a Range resume.
		r.saveDroppedPartial(e, buf)
		r.countFetchError()
		return nil, fmt.Errorf("replicate: fetch generation %d: transfer broke after %d/%d bytes: %w",
			e.Gen, len(buf), e.Bytes, readErr)
	}
	if int64(len(buf)) != e.Bytes {
		if int64(len(buf)) < e.Bytes {
			// Short body with a clean EOF (leader hung up early): also
			// resumable.
			r.saveDroppedPartial(e, buf)
			r.countFetchError()
			return nil, fmt.Errorf("replicate: fetch generation %d: short transfer (%d/%d bytes)",
				e.Gen, len(buf), e.Bytes)
		}
		r.dropPartial()
		r.countFetchError()
		return nil, fmt.Errorf("replicate: fetch generation %d: body exceeds listed %d bytes", e.Gen, e.Bytes)
	}

	r.dropPartial()
	return buf, nil
}

// saveDroppedPartial records a transfer prefix for a later Range resume.
func (r *Replicator) saveDroppedPartial(e GenEntry, prefix []byte) {
	r.mu.Lock()
	r.partial, r.partialGen, r.partialETag = prefix, e.Gen, e.ETag
	r.mu.Unlock()
}

// dropPartial clears any resume state.
func (r *Replicator) dropPartial() {
	r.mu.Lock()
	r.partial, r.partialGen, r.partialETag = nil, 0, ""
	r.mu.Unlock()
}

func (r *Replicator) countFetchError() {
	r.mu.Lock()
	r.status.FetchErrors++
	r.mu.Unlock()
}

// quarantine preserves bytes that failed verification under
// <store-dir>/quarantine/ for operator inspection. Quarantined files are
// never read back by the store (Open skips subdirectories); failure to
// write one is logged but does not mask the verification error.
func (r *Replicator) quarantine(gen uint64, data []byte, reason string) {
	r.mu.Lock()
	r.status.CorruptQuarantined++
	// A corrupt download must not seed a resume.
	r.partial, r.partialGen, r.partialETag = nil, 0, ""
	r.mu.Unlock()

	dir := filepath.Join(r.opts.Store.Dir(), "quarantine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.logf("replicate: quarantine dir: %v", err)
		return
	}
	name := fmt.Sprintf("gen-%d.%d.corrupt", gen, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		r.logf("replicate: quarantine write: %v", err)
		return
	}
	r.logf("replicate: quarantined generation %d download (%s): %s", gen, name, reason)
}

// xorshift64 is a tiny jitter source; replication backoff needs spread,
// not statistical quality, and this keeps math/rand out of library code.
type xorshift64 struct{ state uint64 }

func (x *xorshift64) seed(s uint64) {
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	x.state = s
}

func (x *xorshift64) next() uint64 {
	x.state ^= x.state << 13
	x.state ^= x.state >> 7
	x.state ^= x.state << 17
	return x.state
}
