package simulation

import (
	"math"
	"math/rand"
	"testing"
)

// scriptSource is a rand.Source that returns a fixed script of Int63
// values, so a test can put a draw exactly on a bound.
type scriptSource struct {
	vals []int64
	next int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.next%len(s.vals)]
	s.next++
	return v
}

func (s *scriptSource) Seed(int64) { s.next = 0 }

// TestVisibleMatchesFloat64 holds the integer visibility draw to the
// rng.Float64() <= visibleProb it replaces in SurveyInto: the bounds
// sit exactly where the float conversion turns, a script of draws on
// and beside both bounds (a visible one, the first invisible one, a
// redrawn one) decides and consumes alike, and so do 200 seeded streams
// of 5,000 draws each.
func TestVisibleMatchesFloat64(t *testing.T) {
	frac := func(x int64) float64 { return float64(x) / (1 << 63) }
	if !(frac(visMax) <= visibleProb && frac(visMax+1) > visibleProb) {
		t.Errorf("visMax %d: %v then %v, want the last draw at or below %v", visMax, frac(visMax), frac(visMax+1), visibleProb)
	}
	if !(frac(visRedraw-1) < 1 && frac(visRedraw) == 1 && frac(math.MaxInt64) == 1) {
		t.Errorf("visRedraw %d: %v then %v, want the first draw Float64 redraws", visRedraw, frac(visRedraw-1), frac(visRedraw))
	}

	script := []int64{0, visMax - 1, visMax, visMax + 1, visRedraw - 1, visRedraw, visMax, math.MaxInt64, visRedraw, visMax + 1, 42}
	a, b := rand.New(&scriptSource{vals: script}), rand.New(&scriptSource{vals: script})
	for i := 0; i < 3*len(script); i++ {
		if got, want := visible(a), b.Float64() <= visibleProb; got != want {
			t.Fatalf("script draw %d: visible %v, Float64 rule %v", i, got, want)
		}
	}
	if sa, sb := a.Int63(), b.Int63(); sa != sb {
		t.Fatalf("after the script the streams diverge: %d vs %d", sa, sb)
	}

	for seed := int64(0); seed < 200; seed++ {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			if got, want := visible(a), b.Float64() <= visibleProb; got != want {
				t.Fatalf("seed %d draw %d: visible %v, Float64 rule %v", seed, i, got, want)
			}
		}
	}
}
