// Package parallel provides the repo's only concurrency-orchestration
// primitive: Map, an index-deterministic fan-out over supervised
// workers (an x/sync/errgroup-style group, reimplemented on the
// standard library because the module takes no dependencies).
//
// The package exists to keep two invariants that ad-hoc goroutines break
// easily:
//
//   - Supervision. Every worker is tracked: Map returns only after all
//     of them have, the first error cancels the context the other calls
//     see, and a panic inside fn is recovered into an error instead of
//     killing the process — a build failure in a background snapshot
//     rebuild must surface as a diagnosable error, never as a crash.
//     This holds at every worker count: one worker runs the same
//     supervised path as many.
//
//   - Determinism. Map dispatches work by index and collects results by
//     index, never by completion order. Callers that merge Map results
//     in index order therefore produce byte-identical output regardless
//     of worker count or scheduling — the contract the snapshot build's
//     stage DAG (internal/serve), the scenario matrix boot
//     (internal/scenario) and the per-date delegation inference
//     (internal/delegation) are tested against.
//
// Worker counts of 0 (or below) mean runtime.NumCPU(), and the count
// never exceeds the number of items.
package parallel
