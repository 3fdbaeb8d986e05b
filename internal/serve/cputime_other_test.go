//go:build !unix

package serve

import "time"

// processCPU reports no CPU time where getrusage is unavailable; the
// build benchmark's cpu-ms/op then reads 0.
func processCPU() time.Duration { return 0 }
