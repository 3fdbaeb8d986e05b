// Package latency is the module's one latency histogram: a fixed
// geometric bucket layout, the one function that maps a duration to its
// bucket, and quantile estimation over counts in that layout. The load
// generator records client-side latency into a Histogram; the serving
// layer counts server-side latency per route into the same slots and
// exports them on /varz, so both sides of the socket are comparable
// bucket by bucket. Stdlib only.
package latency

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// The bucket layout is fixed at package init and shared by every
// recording: histFirstBoundMS grown by histGrowth per bucket,
// histBuckets times, plus one implicit overflow bucket. A fixed layout
// is what makes histograms mergeable (associatively, bucket by bucket)
// and two recordings comparable without resampling. It spans 5µs to
// ~166s with ≤ 20% relative quantile error (the growth factor).
const (
	histFirstBoundMS = 0.005
	histGrowth       = 1.2
	histBuckets      = 96
)

// Slots is the number of counts in the layout: one per bound plus the
// trailing overflow bucket.
const Slots = histBuckets + 1

// histBoundsMS holds the bucket upper bounds in milliseconds, computed
// once; the final implicit bucket is +Inf.
var histBoundsMS = func() []float64 {
	bounds := make([]float64, histBuckets)
	b := histFirstBoundMS
	for i := range bounds {
		bounds[i] = b
		b *= histGrowth
	}
	return bounds
}()

// Histogram is a deterministic streaming latency estimator: fixed
// geometric buckets, exact count/sum/min/max, quantiles by linear
// interpolation inside the covering bucket. Not safe for concurrent
// use — each load worker owns one and the results are merged after the
// workers are joined.
type Histogram struct {
	counts [Slots]int64
	count  int64
	sumMS  float64
	minMS  float64
	maxMS  float64
}

// NewHistogram returns an empty histogram over the shared layout.
func NewHistogram() *Histogram { return &Histogram{} }

// BucketBoundsMS returns the shared bucket upper bounds in milliseconds
// (the final implicit bucket is +Inf). The slice is a copy.
func BucketBoundsMS() []float64 { return slices.Clone(histBoundsMS) }

// Index returns d's slot in the shared layout: the first bucket whose
// upper bound is ≥ d, or Slots-1 (overflow) past the last bound.
// Negative durations count as zero.
func Index(d time.Duration) int {
	i, _ := slices.BinarySearch(histBoundsMS, max(float64(d)/float64(time.Millisecond), 0))
	return i
}

// Record adds one observed latency.
func (h *Histogram) Record(d time.Duration) {
	ms := max(float64(d)/float64(time.Millisecond), 0)
	h.counts[Index(d)]++
	h.count++
	h.sumMS += ms
	if h.count == 1 || ms < h.minMS {
		h.minMS = ms
	}
	if ms > h.maxMS {
		h.maxMS = ms
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count }

// MeanMS returns the exact mean latency in milliseconds (0 when empty).
func (h *Histogram) MeanMS() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sumMS / float64(h.count)
}

// MinMS and MaxMS return the exact observed extremes in milliseconds
// (0 when empty).
func (h *Histogram) MinMS() float64 { return h.minMS }
func (h *Histogram) MaxMS() float64 { return h.maxMS }

// Counts returns a copy of the per-bucket counts, aligned with
// BucketBoundsMS plus the final overflow bucket.
func (h *Histogram) Counts() []int64 { return slices.Clone(h.counts[:]) }

// Quantile estimates the q-quantile (q in [0,1]) in milliseconds. The
// estimate interpolates linearly inside the covering bucket and is
// clamped to the exact observed min and max, so Quantile(0) and
// Quantile(1) are exact and everything between carries at most one
// bucket's relative error.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	return min(max(quantileFromBuckets(h.counts[:], h.count, q), h.minMS), h.maxMS)
}

// Merge folds o into h. Both histograms share the bucket layout, so
// merging is exact per bucket and associative: any merge order yields
// identical counts, count, sum, min, and max.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.count == 0 || o.minMS < h.minMS {
		h.minMS = o.minMS
	}
	if o.maxMS > h.maxMS {
		h.maxMS = o.maxMS
	}
	h.count += o.count
	h.sumMS += o.sumMS
}

// QuantileFromBuckets estimates the q-quantile in milliseconds from
// per-slot counts over the shared layout (len(counts) == Slots), such as
// a route's latency_counts on /varz. This is how marketbench computes
// server-side percentiles to cross-check its own client-side
// measurements. Counts scraped from another process are outside input,
// so it returns an error for a malformed histogram (wrong length, no
// observations, negative count).
func QuantileFromBuckets(counts []int64, q float64) (float64, error) {
	if len(counts) != Slots {
		return 0, fmt.Errorf("latency: bucket histogram: %d counts, want %d", len(counts), Slots)
	}
	var total int64
	for _, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("latency: bucket histogram: negative count %d", c)
		}
		total += c
	}
	if total == 0 {
		return 0, fmt.Errorf("latency: bucket histogram: no observations")
	}
	return quantileFromBuckets(counts, total, q), nil
}

// quantileFromBuckets is the shared interpolation core. total must be
// the sum of counts and positive.
func quantileFromBuckets(counts []int64, total int64, q float64) float64 {
	// The target rank in 1..total: the smallest observation index whose
	// cumulative count covers the q fraction.
	rank := max(int64(math.Ceil(min(max(q, 0), 1)*float64(total))), 1)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < rank {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = histBoundsMS[i-1]
		}
		hi := lo
		if i < len(histBoundsMS) {
			hi = histBoundsMS[i]
		}
		// Position of the target rank inside this bucket, in (0,1].
		within := float64(rank-(cum-c)) / float64(c)
		return lo + (hi-lo)*within
	}
	// Unreachable when total == sum(counts); defensive fallback.
	return histBoundsMS[len(histBoundsMS)-1]
}
