package core

import (
	"bytes"
	"sync"
	"testing"

	"ipv4market/internal/netblock"
)

// TestStudyReadOnly enforces the Study contract: after NewStudy, every
// accessor is a pure derivation — no shared mutable state, no lazy
// initialization beyond the once-drawn last-day survey, no draws from a
// shared RNG stream. The test runs
// the full accessor surface from many goroutines at once; the race
// detector (scripts/check.sh runs the suite with -race) turns any
// violation into a failure.
func TestStudyReadOnly(t *testing.T) {
	s := testStudy(t)
	// Take the pre-concurrency baselines single-threaded.
	wantTable1 := len(s.Table1())
	wantCells := len(s.Figure1())

	accessors := []func(){
		func() { s.Table1() },
		func() { s.Figure1() },
		func() { s.Figure2() },
		func() { s.Figure3() },
		func() { s.Figure4() },
		func() {
			if _, err := s.Headline(); err != nil {
				t.Error(err)
			}
		},
		func() { s.Census() },
		func() { s.World.BuildWhoisDB() },
		func() { s.Routing.SurveyAt(s.Cfg.RoutingDays - 1) },
		func() { s.LastDaySurvey().EachVisiblePrefix(0.5, func(netblock.Prefix) {}) },
		func() { s.AmortizationTable() },
		func() { s.Mergers() },
	}

	var wg sync.WaitGroup
	const rounds = 4
	for round := 0; round < rounds; round++ {
		for _, fn := range accessors {
			wg.Add(1)
			go func(fn func()) { // coordinated: wg.Done below, wg.Wait at end
				defer wg.Done()
				fn()
			}(fn)
		}
	}
	wg.Wait()

	// The concurrent pass must not have perturbed later results.
	if got := len(s.Table1()); got != wantTable1 {
		t.Errorf("Table1 rows after concurrent access = %d, want %d", got, wantTable1)
	}
	if got := len(s.Figure1()); got != wantCells {
		t.Errorf("Figure1 cells after concurrent access = %d, want %d", got, wantCells)
	}
}

// TestBuildWhoisDBDeterministic pins the repeatability half of the
// contract: BuildWhoisDB draws only from its own seed-derived RNG, so
// repeated calls on one world — even interleaved with other accessors —
// produce byte-identical databases.
func TestBuildWhoisDBDeterministic(t *testing.T) {
	s := testStudy(t)
	dump := func() []byte {
		var buf bytes.Buffer
		if _, err := s.World.BuildWhoisDB().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := dump()
	s.Figure1() // interleave unrelated pipeline work
	s.Table1()
	second := dump()
	if !bytes.Equal(first, second) {
		t.Fatalf("BuildWhoisDB not deterministic: dumps differ (%d vs %d bytes)", len(first), len(second))
	}
	if len(first) == 0 {
		t.Fatal("BuildWhoisDB dump empty")
	}
}
