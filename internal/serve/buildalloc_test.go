package serve

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"ipv4market/internal/simulation"
)

// TestBuildAllocBytes holds what a one-worker build of the DefaultConfig
// world allocates to a budget: the build keeps one copy of each thing it
// produces, so its transient garbage, which sets the server's peak heap
// while the generation it replaces is still live, stays well below the
// 34 MB a build allocated while it computed figures twice, copied the
// transfer log five times, marshalled /v1/transfers by reflection and
// made ten pointer-bearing surveys (measured: 18.0 MiB, and 19.5 MiB
// under the race detector, which gets a 2 MiB allowance).
func TestBuildAllocBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DefaultConfig world")
	}
	budget := uint64(24 << 20)
	if raceBuild() {
		budget += 2 << 20
	}
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	before := allocs[0].Value.Uint64()
	if _, err := BuildSnapshotOpts(simulation.DefaultConfig(), BuildOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	metrics.Read(allocs)
	got := allocs[0].Value.Uint64() - before
	t.Logf("one-worker DefaultConfig build allocated %.1f MiB (budget %d MiB)", float64(got)/(1<<20), budget>>20)
	if got > budget {
		t.Errorf("one-worker DefaultConfig build allocated %.1f MiB, budget %d MiB", float64(got)/(1<<20), budget>>20)
	}
}

// liveHeapBytes collects twice and returns the bytes the previous
// collection marked live.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return live[0].Value.Uint64()
}

// TestGenerationLiveBytes bounds the heap one DefaultConfig generation
// keeps once its build's garbage is collected: the static bodies, the
// price table, the delegation index and the as-of index, before any
// request renders event rows or fills the query cache. Every generation
// the server keeps (the served one, the one a rebuild makes beside it,
// pinned past ones) holds this much, and the collector's heap goal is
// twice the live heap, so it sets a multiple of itself in RSS. A first
// build warms whatever the packages cache, so the measured one counts
// only its own snapshot. A generation kept 6.0 MB while the as-of index
// held per-row strings, time.Times, prebuilt events and trie nodes
// (4.2 MB of it) and the /v1/transfers buffer was sized from an upper
// bound; it keeps 2.55 MB with the index in pointer-free columns
// (0.97 MB), under the race detector too.
func TestGenerationLiveBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DefaultConfig world")
	}
	const budget = 2_800_000
	build := func() *Snapshot {
		snap, err := BuildSnapshotOpts(simulation.DefaultConfig(), BuildOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	build()
	before := liveHeapBytes()
	snap := build()
	kept := int64(liveHeapBytes()) - int64(before)
	runtime.KeepAlive(snap)
	t.Logf("a DefaultConfig generation keeps %d bytes live (budget %d); its as-of index accounts %d",
		kept, budget, snap.Temporal.SizeBytes())
	if kept > budget {
		t.Errorf("a DefaultConfig generation keeps %d bytes live, budget %d", kept, budget)
	}
}
