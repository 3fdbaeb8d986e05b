package serve

import (
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
