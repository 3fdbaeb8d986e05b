package temporal

import (
	"fmt"
	"math/bits"
	"testing"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
)

// synthInput builds a deterministic synthetic history: nBlocks /16s, each
// with a chainLen-transfer chain spread over 2010–2019, plus nLeases /24
// delegation spans in the routing window. Event count is
// nBlocks*chainLen + ~2*nLeases. No randomness — the shape is a pure
// function of the sizes, so benchmarks and probe counts are reproducible.
func synthInput(tb testing.TB, nBlocks, chainLen, nLeases int) Input {
	tb.Helper()
	in := Input{
		Start: time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC),
	}
	base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nBlocks; i++ {
		p := netblock.MustPrefix(netblock.AddrFrom4(byte(8+i/256), byte(i%256), 0, 0), 16)
		holder := fmt.Sprintf("org-%d-0", i)
		for j := 0; j < chainLen; j++ {
			next := fmt.Sprintf("org-%d-%d", i, j+1)
			in.Transfers = append(in.Transfers, TransferRecord{
				Prefix: p, From: holder, To: next,
				FromRIR: registry.ARIN, ToRIR: registry.RIR((i + j) % 5),
				Type:         string(registry.TypeMarket),
				Date:         base.AddDate(0, 0, (i%97)+j*660),
				PricePerAddr: 10 + float64((i+j)%13),
			})
			holder = next
		}
		in.Allocations = append(in.Allocations, AllocationRecord{
			Prefix: p, Org: holder, RIR: registry.ARIN,
			Date: base.AddDate(0, 0, (i%97)+(chainLen-1)*660), Status: "allocated",
		})
	}
	lease := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nLeases; i++ {
		block := i % nBlocks
		child := netblock.MustPrefix(netblock.AddrFrom4(byte(8+block/256), byte(block%256), byte(i/nBlocks), 0), 24)
		in.Leases = append(in.Leases, LeaseRecord{
			Parent: netblock.MustPrefix(netblock.AddrFrom4(byte(8+block/256), byte(block%256), 0, 0), 16),
			Child:  child,
			FromAS: uint32(64496 + block), ToAS: uint32(65000 + i),
			Start: lease.AddDate(0, 0, i%700),
			End:   lease.AddDate(0, 0, i%700+90+i%300),
		})
	}
	return in
}

// probeCount runs a point query and returns how many index probes
// (binary-search steps and parent links followed) it took.
func probeCount(ix *Index, p netblock.Prefix, d time.Time) int {
	n := 0
	ix.at(p, d, func() { n++ })
	return n
}

// maxProbes sweeps every block at a spread of dates and returns the worst
// probe count observed.
func maxProbes(ix *Index, nBlocks int) int {
	dates := []time.Time{
		time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2012, 3, 9, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 11, 23, 0, 0, 0, 0, time.UTC),
		time.Date(2018, 7, 4, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC),
	}
	worst := 0
	for i := 0; i < nBlocks; i += 7 {
		p := netblock.MustPrefix(netblock.AddrFrom4(byte(8+i/256), byte(i%256), 0, 0), 16)
		for _, d := range dates {
			if n := probeCount(ix, p, d); n > worst {
				worst = n
			}
		}
	}
	return worst
}

// TestPointLookupSublinear is the acceptance bound in deterministic form:
// growing the event log 10× must grow the probe count (binary-search steps
// + parent links followed) logarithmically, not linearly. Counting probes instead of
// timing keeps the test meaningful under -race and on loaded machines.
func TestPointLookupSublinear(t *testing.T) {
	small := mustNew(t, synthInput(t, 200, 5, 400))
	big := mustNew(t, synthInput(t, 2400, 5, 4500))
	if big.EventCount() < 10*small.EventCount() {
		t.Fatalf("scaling fixture too small: %d vs %d events", big.EventCount(), small.EventCount())
	}

	pSmall, pBig := maxProbes(small, 200), maxProbes(big, 2000)
	t.Logf("max probes: %d @ %d events, %d @ %d events", pSmall, small.EventCount(), pBig, big.EventCount())

	// A lookup is a constant number of binary searches over blocks,
	// children, spans and epochs, plus parent walks of at most 33 links
	// each: O(log events) with a small constant. 8·log2(events)+96 is far below linear but fails loudly if
	// a scan ever sneaks into the query path.
	bound := func(events int) int { return 8*bits.Len(uint(events)) + 96 }
	if pSmall > bound(small.EventCount()) {
		t.Errorf("small index: %d probes exceeds O(log) bound %d", pSmall, bound(small.EventCount()))
	}
	if pBig > bound(big.EventCount()) {
		t.Errorf("10× index: %d probes exceeds O(log) bound %d", pBig, bound(big.EventCount()))
	}
	// And the growth itself must be additive-logarithmic, not ~10×.
	if pBig > pSmall+40 {
		t.Errorf("probe count grew from %d to %d across a 10× event log", pSmall, pBig)
	}
}

// TestIndexBuildAllocs is New's allocation budget at the default world's
// event volume (the x1 benchmark input). New builds it in about 110
// allocations: every column is allocated once at its final size, and
// about 35 more are the growth of the string interner's map, since this
// input has 4,002 distinct strings (DefaultConfig has a few hundred).
// One allocation per trie node, per covering lookup or per block's
// transfer chain took about 22k, and per-epoch bit-tries about 580k, so
// the budget fails loudly if any of them comes back.
func TestIndexBuildAllocs(t *testing.T) {
	in := synthInput(t, 800, 4, 1000)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := New(in); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 200
	t.Logf("New: %.0f allocs (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("New allocates %.0f times, budget %d", allocs, budget)
	}
}

// BenchmarkIndexAt measures point lookups at 1× and ≥10× the default
// world's event volume (DefaultConfig yields 4,986 events: 3,743
// transfers plus 1,243 delegation starts and ends of its 990 leases; a
// lease still open at the epoch end has no end event). The "x10" size is
// the acceptance benchmark: ~60k events.
func BenchmarkIndexAt(b *testing.B) {
	for _, sc := range []struct {
		name                       string
		nBlocks, chainLen, nLeases int
	}{
		{"x1", 800, 4, 1000},    // ≈ 5.2k events
		{"x10", 8000, 4, 14000}, // ≈ 60k events
	} {
		b.Run(sc.name, func(b *testing.B) {
			ix := mustNew(b, synthInput(b, sc.nBlocks, sc.chainLen, sc.nLeases))
			b.Logf("events=%d spans=%d epochs=%d", ix.EventCount(), ix.SpanCount(), ix.EpochCount())
			d := time.Date(2018, 7, 4, 0, 0, 0, 0, time.UTC)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk := i % sc.nBlocks
				p := netblock.MustPrefix(netblock.AddrFrom4(byte(8+blk/256), byte(blk%256), 0, 0), 16)
				ix.At(p, d)
			}
		})
	}
}

// BenchmarkIndexBuild measures New at the same two scales on the
// synthetic history. BenchmarkAsofIndex in internal/serve measures it,
// and the rest of the index's build side, on the DefaultConfig world.
func BenchmarkIndexBuild(b *testing.B) {
	for _, sc := range []struct {
		name                       string
		nBlocks, chainLen, nLeases int
	}{
		{"x1", 800, 4, 1000},
		{"x10", 8000, 4, 14000},
	} {
		b.Run(sc.name, func(b *testing.B) {
			in := synthInput(b, sc.nBlocks, sc.chainLen, sc.nLeases)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
