package core

import (
	"reflect"
	"testing"
)

// TestFigure6WorkersDeterministic pins the deterministic-merge contract
// of the fanned-out per-date inference: any worker count produces a
// result deeply equal to the serial (1-worker) run. scripts/check.sh
// runs this under -race, which also shakes out sharing between per-day
// workers.
func TestFigure6WorkersDeterministic(t *testing.T) {
	s := testStudy(t)
	const sample = 7
	serial, err := s.Figure6Workers(sample, 1)
	if err != nil {
		t.Fatalf("serial Figure6: %v", err)
	}
	if len(serial.Points) == 0 {
		t.Fatal("serial Figure6 produced no points")
	}
	for _, workers := range []int{2, 8} {
		par, err := s.Figure6Workers(sample, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: Figure6 result differs from serial run", workers)
		}
	}
	// The default accessor must be the same computation.
	def, err := s.Figure6(sample)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	if !reflect.DeepEqual(serial, def) {
		t.Error("Figure6 differs from Figure6Workers(sample, 1)")
	}
}
