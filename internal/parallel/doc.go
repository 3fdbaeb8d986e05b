// Package parallel provides the repo's only concurrency-orchestration
// primitives: a supervised Group in the style of x/sync/errgroup (the
// module takes no dependencies, so it is reimplemented here on the
// standard library) and index-deterministic fan-out helpers (ForEach,
// Map) built on it.
//
// The package exists to keep two invariants that ad-hoc goroutines break
// easily:
//
//   - Supervision. Every goroutine launched through a Group is tracked:
//     Wait blocks until all of them return, the first error cancels the
//     group's context so siblings can stop early, and a panic inside a
//     task is recovered into an error instead of killing the process —
//     a build failure in a background snapshot rebuild must surface as a
//     diagnosable error, never as a crash.
//
//   - Determinism. ForEach and Map dispatch work by index and collect
//     results by index, never by completion order. Callers that merge
//     Map results in index order therefore produce byte-identical output
//     regardless of worker count or scheduling — the contract the
//     parallel snapshot build (internal/serve) and the per-date
//     delegation inference (internal/core) are tested against.
//
// Worker counts of 0 (or below) mean runtime.NumCPU(); a count of 1
// degenerates to a serial loop with no goroutines at all, which keeps
// the 1-worker reference path trivially comparable to the fanned-out
// one.
package parallel
