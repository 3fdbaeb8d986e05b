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
