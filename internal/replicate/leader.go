package replicate

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"ipv4market/internal/store"
)

// Wire types shared by the leader handlers and the follower client.

// GenEntry is one generation in the replication listing: everything a
// follower needs to decide whether to fetch it and to verify the bytes
// it gets.
type GenEntry struct {
	Gen     uint64 `json:"gen"`
	Bytes   int64  `json:"bytes"`
	CRC32   string `json:"crc32"` // IEEE CRC32 of the whole segment file, 8 hex digits
	ETag    string `json:"etag"`  // strong ETag of the segment endpoint
	Created string `json:"created"`
	Seed    int64  `json:"seed"`
}

// Route patterns for the two leader endpoints, in net/http ServeMux
// syntax. Callers mount Generations and Segment under exactly these
// patterns (cmd/marketd does) so followers, documentation, and the
// docs-drift test all agree on the replication surface.
const (
	// PatternGenerations serves the sealed-segment catalog (Listing).
	PatternGenerations = "GET /v1/replication/generations"
	// PatternSegment streams one generation's raw segment bytes.
	PatternSegment = "GET /v1/replication/segment/{gen}"
)

// Listing is the GET /v1/replication/generations document.
type Listing struct {
	// NextGen is the leader store's ID ratchet; it exceeds every listed
	// generation and lets a follower detect a leader that moved on even
	// when retention already dropped the intermediate segments.
	NextGen     uint64     `json:"next_gen"`
	Generations []GenEntry `json:"generations"`
}

// Leader serves a store's sealed segments to replication followers. It
// is read-only over the store: two handlers, no state of its own beyond
// counters. Each segment's CRC comes from the store's listing, which
// computed it while writing, scanning or importing the file.
type Leader struct {
	st *store.Store

	mu        sync.Mutex
	listings  int64
	shipped   int64
	bytesOut  int64
	errorsOut int64
}

// NewLeader returns a Leader over st.
func NewLeader(st *store.Store) *Leader {
	return &Leader{st: st}
}

// segmentETag derives the strong ETag for a generation's segment bytes.
func segmentETag(crc uint32, size int64) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%08x-%d", crc, size))
}

// Generations is the GET /v1/replication/generations handler: the live
// generation list with sizes, checksums, and segment ETags.
func (l *Leader) Generations() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		atomicAdd(&l.mu, &l.listings, 1)
		listing := Listing{NextGen: l.st.Stats().NextGen}
		for _, g := range l.st.Generations() {
			listing.Generations = append(listing.Generations, GenEntry{
				Gen:     g.Gen,
				Bytes:   g.Bytes,
				CRC32:   fmt.Sprintf("%08x", g.CRC32),
				ETag:    segmentETag(g.CRC32, g.Bytes),
				Created: g.Created.UTC().Format(time.RFC3339),
				Seed:    g.Seed,
			})
		}
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(listing, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(append(data, '\n'))
	})
}

// Segment is the GET /v1/replication/segment/{gen} handler: the raw
// sealed segment file, streamed with a strong ETag, Content-Length, and
// full Range/If-Range support (http.ServeContent), so followers can
// resume partial downloads.
func (l *Leader) Segment() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gen, err := strconv.ParseUint(r.PathValue("gen"), 10, 64)
		if err != nil || gen == 0 {
			atomicAdd(&l.mu, &l.errorsOut, 1)
			http.Error(w, "want a positive generation ID", http.StatusBadRequest)
			return
		}
		info, ok := l.st.Generation(gen)
		if !ok {
			atomicAdd(&l.mu, &l.errorsOut, 1)
			http.Error(w, fmt.Sprintf("generation %d not in store", gen), http.StatusNotFound)
			return
		}
		path, ok := l.st.SegmentPath(gen)
		if !ok {
			atomicAdd(&l.mu, &l.errorsOut, 1)
			http.Error(w, fmt.Sprintf("generation %d not in store", gen), http.StatusNotFound)
			return
		}
		f, err := os.Open(path)
		if err != nil {
			atomicAdd(&l.mu, &l.errorsOut, 1)
			status := http.StatusInternalServerError
			if errors.Is(err, os.ErrNotExist) {
				status = http.StatusNotFound // compacted between lookup and open
			}
			http.Error(w, err.Error(), status)
			return
		}
		defer f.Close()
		w.Header().Set("ETag", segmentETag(info.CRC32, info.Bytes))
		w.Header().Set("Content-Type", "application/octet-stream")
		// ServeContent handles Range, If-Range, If-None-Match, and sets
		// Content-Length; the modtime is the build time, which is stable
		// for an immutable segment.
		http.ServeContent(w, r, info.File, info.Created, f)
		l.mu.Lock()
		l.shipped++
		l.bytesOut += info.Bytes // upper bound; range responses ship less
		l.mu.Unlock()
	})
}

// LeaderStatus is the leader's replication state as exported on /varz.
type LeaderStatus struct {
	Role           string `json:"role"`
	Segments       int    `json:"segments"`
	NextGen        uint64 `json:"next_gen"`
	Listings       int64  `json:"listings"`
	SegmentsServed int64  `json:"segments_served"`
	BytesShipped   int64  `json:"bytes_shipped"`
	FetchErrors    int64  `json:"fetch_errors"`
}

// Status returns a point-in-time snapshot of the leader's counters.
func (l *Leader) Status() LeaderStatus {
	stats := l.st.Stats()
	l.mu.Lock()
	defer l.mu.Unlock()
	return LeaderStatus{
		Role:           "leader",
		Segments:       stats.Segments,
		NextGen:        stats.NextGen,
		Listings:       l.listings,
		SegmentsServed: l.shipped,
		BytesShipped:   l.bytesOut,
		FetchErrors:    l.errorsOut,
	}
}

// Varz adapts Status for serve.Options.ReplicationVarz.
func (l *Leader) Varz() any { return l.Status() }

// atomicAdd bumps a counter under the shared mutex. The leader's
// counters are too cold for per-counter atomics to matter.
func atomicAdd(mu *sync.Mutex, counter *int64, delta int64) {
	mu.Lock()
	*counter += delta
	mu.Unlock()
}
