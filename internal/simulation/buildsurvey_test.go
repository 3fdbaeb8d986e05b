package simulation_test

import (
	"sync"
	"testing"

	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

// TestBuildSurveysEachDayOnce pins that a snapshot build draws one
// origin survey per distinct day. At DefaultConfig the utilization
// stage's last quarter samples the window's last day, the day the
// delegations stage infers on; the two stages run concurrently and read
// the study's one survey of it. Two workers let them overlap, so under
// the race detector a write on the survey's read paths fails the test.
func TestBuildSurveysEachDayOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the DefaultConfig world")
	}
	cfg := simulation.DefaultConfig()
	var mu sync.Mutex
	surveys := map[int]int{}
	undo := simulation.CountSurveys(func(day int) {
		mu.Lock()
		surveys[day]++
		mu.Unlock()
	})
	defer undo()
	if _, err := serve.BuildSnapshotOpts(cfg, serve.BuildOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for day, n := range surveys {
		if n != 1 {
			t.Errorf("day %d surveyed %d times", day, n)
		}
	}
	if last := cfg.RoutingDays - 1; surveys[last] != 1 {
		t.Errorf("the window's last day, %d, surveyed %d times, want 1", last, surveys[last])
	}
	// Ten utilization quarters; the delegations stage adds no day.
	if len(surveys) != 10 {
		t.Errorf("the build surveyed %d distinct days, want the 10 utilization quarters: %v", len(surveys), surveys)
	}
}
