package core

import (
	"testing"

	"ipv4market/internal/simulation"
)

// BenchmarkUtilization measures the build's utilization stage on its
// own: the quarterly series at DefaultConfig, serially (workers=1), as
// the snapshot build runs it. Run with -benchmem; the ten per-quarter
// origin surveys are most of its time and allocations.
func BenchmarkUtilization(b *testing.B) {
	s, err := NewStudy(simulation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := s.UtilizationWorkers(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("empty utilization series")
		}
	}
}

// BenchmarkRPKISeries measures the build's rpki stage on its own: the
// ROA-delegation history at DefaultConfig (one presence day set per
// adopting lease over the 882-day window), its presence and churn
// series, and the consistency-rule grid.
func BenchmarkRPKISeries(b *testing.B) {
	s, err := NewStudy(simulation.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.RPKISeries()
		if err != nil {
			b.Fatal(err)
		}
		if res.Delegations == 0 {
			b.Fatal("empty RPKI history")
		}
	}
}
