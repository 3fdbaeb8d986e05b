// Package serve is the analytics serving layer for the reproduction: it
// materializes an entire core.Study into an immutable, precomputed
// Snapshot — every table, figure, price cell, transfer record, the
// leasing price book, and a radix-trie delegation index for per-prefix
// lookups — and serves the snapshot over HTTP.
//
// The design splits the system into a slow write path and a fast read
// path:
//
//   - BuildSnapshotOpts runs every study pipeline exactly once and
//     encodes the static artifacts (JSON and CSV bodies, ETags) up front.
//     All of the simulation's randomness is confined to this build step.
//     The build is a two-phase DAG: the study constructs serially (every
//     artifact reads it), then the independent artifact stages — Table 1,
//     Figures 1–4, price cells, transfer statistics, the leasing summary,
//     the delegation index — fan out through parallel.Map, each stage
//     writing only its own Snapshot fields. No stage fans out again: the
//     stage DAG is the build's only concurrency. Results merge by stage
//     index, never completion order, so a snapshot built at any worker
//     count is byte-identical (same bodies, same ETags) to the one-worker
//     build; the determinism test in this package pins that contract.
//     Per-stage wall-clock timings are recorded on the Snapshot and
//     exported via /varz, and a failing or panicking stage, at any worker
//     count, surfaces its name in the build error.
//   - Server holds the current Snapshot behind an atomic pointer.
//     Handlers only read: a request never runs a study pipeline, so
//     serving is race-free and O(response size). Background rebuilds
//     (triggered by SIGHUP or POST /admin/rebuild) construct a fresh
//     Snapshot off to the side and swap it in atomically — readers are
//     never blocked and always see a complete, consistent study.
//   - Filtered queries (/v1/prices, /v1/delegations) are
//     answered from a per-snapshot result cache with singleflight
//     collapsing, so a thundering herd on one filter computes it once;
//     the same memo holds the past generations ?gen= reads pin.
//     Filtered /v1/prices responses come from a per-snapshot price table
//     (one pre-rendered JSON/CSV row per cell), so a filter render is
//     row selection plus concatenation, never re-marshalling.
//   - Every artifact body is served from memory: http.ServeContent
//     serves it from a bytes.Reader (Range and If-Range included), and
//     the metrics wrapper writes a whole body with one Write, so a small
//     body shares one write(2) with the header and a large one skips
//     net/http's sniff-and-copy loop. No request opens a segment file;
//     /varz counts static and computed responses under zero_copy.
//
// Endpoints: /v1/table1, /v1/figures/{1..4}, /v1/prices, /v1/transfers,
// /v1/delegations, /v1/leasing, /v1/headline, /v1/history, plus
// /healthz, /readyz and /varz. Responses carry strong ETags and honor
// If-None-Match; append ?format=csv where a CSV emitter exists (the
// figure and price series, reusing the core package's encoders).
// docs/API.md is the client-facing reference for the whole surface, and
// the docs-drift test in this package keeps it honest against Routes().
//
// The middleware stack (panic recovery, per-request timeouts, per-route
// metrics) and the graceful Serve runner are exported separately so other
// daemons in this repository (cmd/rdapd) share them instead of
// duplicating the code.
package serve
