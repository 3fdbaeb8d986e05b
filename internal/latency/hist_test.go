package latency

import (
	"math"
	"sort"
	"testing"
	"time"
)

// exactQuantile is the reference implementation: the ceil(q*n)-th
// smallest observation.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// splitmix64 advances state and returns the next value of the seeded
// stream the samples are drawn from.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// sampleMS draws n latencies (in milliseconds) from a seeded stream,
// shaped roughly like serving latency: a log-uniform body from ~10µs to
// ~1s with a heavy tail.
func sampleMS(t *testing.T, seed uint64, n int) []float64 {
	t.Helper()
	state := seed
	out := make([]float64, n)
	for i := range out {
		// log-uniform over [0.01, 1000] ms
		u := float64(splitmix64(&state)%1_000_000) / 1_000_000
		out[i] = 0.01 * math.Pow(10, 5*u)
	}
	return out
}

// TestHistogramQuantileMatchesExact pins the streamed estimator against
// the exact quantile on seeded distributions: the estimate must land
// within one bucket's relative growth (plus exact clamping at the
// extremes).
func TestHistogramQuantileMatchesExact(t *testing.T) {
	for _, seed := range []uint64{1, 42, 9001} {
		samples := sampleMS(t, seed, 20_000)
		h := NewHistogram()
		for _, ms := range samples {
			h.Record(time.Duration(ms * float64(time.Millisecond)))
		}
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)

		if h.Count() != int64(len(samples)) {
			t.Fatalf("seed %d: count %d, want %d", seed, h.Count(), len(samples))
		}
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
			got := h.Quantile(q)
			want := exactQuantile(sorted, q)
			// One bucket of relative error: bounds grow by histGrowth, and
			// recording quantizes a duration to ~1ns, so allow growth + a
			// hair.
			lo, hi := want/histGrowth-0.001, want*histGrowth+0.001
			if got < lo || got > hi {
				t.Errorf("seed %d q=%v: streamed %.6f, exact %.6f (allowed [%.6f, %.6f])", seed, q, got, want, lo, hi)
			}
		}
		// The extremes are exact, not bucket-approximated.
		if got, want := h.Quantile(0), sorted[0]; math.Abs(got-want) > 0.001 {
			t.Errorf("seed %d: Quantile(0) = %v, want exact min %v", seed, got, want)
		}
		if got, want := h.Quantile(1), sorted[len(sorted)-1]; math.Abs(got-want) > 0.001 {
			t.Errorf("seed %d: Quantile(1) = %v, want exact max %v", seed, got, want)
		}
	}
}

// TestHistogramMergeAssociativity pins the merge contract: any grouping
// of merges yields identical counts and quantiles, and merging equals
// recording everything into one histogram.
func TestHistogramMergeAssociativity(t *testing.T) {
	parts := [][]float64{
		sampleMS(t, 7, 5000),
		sampleMS(t, 8, 3000),
		sampleMS(t, 9, 7000),
	}
	record := func(chunks ...[]float64) *Histogram {
		h := NewHistogram()
		for _, chunk := range chunks {
			for _, ms := range chunk {
				h.Record(time.Duration(ms * float64(time.Millisecond)))
			}
		}
		return h
	}
	hists := func() []*Histogram {
		out := make([]*Histogram, len(parts))
		for i, p := range parts {
			out[i] = record(p)
		}
		return out
	}

	// (A⊕B)⊕C
	left := hists()
	left[0].Merge(left[1])
	left[0].Merge(left[2])
	// A⊕(B⊕C)
	right := hists()
	right[1].Merge(right[2])
	right[0].Merge(right[1])
	// everything recorded directly
	direct := record(parts...)

	for name, h := range map[string]*Histogram{"right-assoc": right[0], "direct": direct} {
		if got, want := h.Counts(), left[0].Counts(); len(got) != len(want) {
			t.Fatalf("%s: bucket count mismatch", name)
		} else {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: bucket %d: %d, want %d", name, i, got[i], want[i])
				}
			}
		}
		if h.Count() != left[0].Count() {
			t.Errorf("%s: count %d, want %d", name, h.Count(), left[0].Count())
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if got, want := h.Quantile(q), left[0].Quantile(q); math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: Quantile(%v) = %v, want %v", name, q, got, want)
			}
		}
	}
	if got, want := left[0].MaxMS(), direct.MaxMS(); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged max %v, direct max %v", got, want)
	}
	if got, want := left[0].MinMS(), direct.MinMS(); math.Abs(got-want) > 1e-12 {
		t.Errorf("merged min %v, direct min %v", got, want)
	}
}

// TestHistogramEmpty keeps the zero states well-defined.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Quantile(0.5) > 0 || h.MeanMS() > 0 || h.MaxMS() > 0 {
		t.Errorf("empty histogram is not zero: count=%d p50=%v mean=%v max=%v", h.Count(), h.Quantile(0.5), h.MeanMS(), h.MaxMS())
	}
	h.Merge(NewHistogram()) // merging empties must not disturb anything
	if h.Count() != 0 {
		t.Errorf("merge of empties: count %d", h.Count())
	}
}

// TestQuantileFromBuckets covers the cross-check entry point used
// against /varz exports, including its error cases.
func TestQuantileFromBuckets(t *testing.T) {
	bounds := BucketBoundsMS()
	counts := make([]int64, Slots)
	counts[10], counts[40], counts[70], counts[Slots-1] = 50, 30, 15, 5 // 100 samples, 5 in overflow
	p50, err := QuantileFromBuckets(counts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 <= bounds[9] || p50 > bounds[10] {
		t.Errorf("p50 = %v, want in (%v, %v] (rank 50 is the last sample of bucket 10)", p50, bounds[9], bounds[10])
	}
	p99, err := QuantileFromBuckets(counts, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 99 lands in the unbounded overflow bucket; with no upper
	// bound the estimator answers the bucket's lower edge.
	if last := bounds[len(bounds)-1]; p99 < last {
		t.Errorf("p99 = %v, want >= %v (rank 99 is in the overflow bucket)", p99, last)
	}

	// The ten-bound layout /varz exported before the shared one.
	if _, err := QuantileFromBuckets([]int64{60, 25, 10, 3, 2, 0, 0, 0, 0, 0, 0}, 0.5); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := QuantileFromBuckets(make([]int64, Slots), 0.5); err == nil {
		t.Error("empty histogram accepted")
	}
	counts[3] = -1
	if _, err := QuantileFromBuckets(counts, 0.5); err == nil {
		t.Error("negative count accepted")
	}
}

// TestIndex pins the duration-to-slot rule both sides of the socket
// share: the first bound ≥ d, negatives as zero, overflow past the last
// bound, and Record counting into exactly that slot.
func TestIndex(t *testing.T) {
	bounds := BucketBoundsMS()
	atBound := func(i int) time.Duration {
		// The largest whole-nanosecond duration not above bound i.
		return time.Duration(math.Floor(bounds[i] * float64(time.Millisecond)))
	}
	cases := []struct {
		name string
		d    time.Duration
		want int
	}{
		{"zero", 0, 0},
		{"negative", -time.Second, 0},
		{"exactly the first bound", 5 * time.Microsecond, 0},
		{"1ns past the first bound", 5*time.Microsecond + 1, 1},
		{"at bound 40", atBound(40), 40},
		{"1ns past bound 40", atBound(40) + 1, 41},
		{"at the last bound", atBound(len(bounds) - 1), len(bounds) - 1},
		{"past the last bound", atBound(len(bounds)-1) + 1, Slots - 1},
		{"far past the last bound", time.Hour, Slots - 1},
	}
	for _, c := range cases {
		if got := Index(c.d); got != c.want {
			t.Errorf("%s: Index(%v) = %d, want %d", c.name, c.d, got, c.want)
		}
		h := NewHistogram()
		h.Record(c.d)
		if got := h.Counts()[Index(c.d)]; got != 1 {
			t.Errorf("%s: Counts()[Index(%v)] = %d after Record, want 1", c.name, c.d, got)
		}
	}
}

// TestBucketBoundsDeterministic pins the layout: ascending, starting at
// the documented first bound, and identical across calls (the merge and
// cross-check contracts both ride on this).
func TestBucketBoundsDeterministic(t *testing.T) {
	a, b := BucketBoundsMS(), BucketBoundsMS()
	if len(a) != histBuckets || len(b) != histBuckets {
		t.Fatalf("bounds length %d/%d, want %d", len(a), len(b), histBuckets)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0 {
			t.Fatalf("bounds differ at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("bounds not ascending at %d: %v then %v", i, a[i-1], a[i])
		}
	}
	if math.Abs(a[0]-histFirstBoundMS) > 1e-12 {
		t.Errorf("first bound %v, want %v", a[0], histFirstBoundMS)
	}
}
