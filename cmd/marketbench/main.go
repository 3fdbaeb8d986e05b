// Command marketbench measures the replicated marketd fleet under load.
// It boots a leader with a durable store, two followers replicating
// from it, and a round-robin router over all three, on loopback; drives
// the weighted /v1 endpoint mix (loadgen.DefaultMix) through the router
// closed-loop; rebuilds the leader under that load and waits for both
// followers to catch up; and, with -out, writes the BENCH_cluster.json
// baseline:
//
//	marketbench -marketd ./bin/marketd -requests 5000 -out BENCH_cluster.json
//
// The world is marketd's simulation.DefaultConfig, the world it serves,
// unless -lirs/-days shrink it (scripts/check.sh's load gate runs 14
// LIRs over 40 days). The request mix is fixed by a constant seed
// (internal/loadgen derives one splitmix64 stream per worker). Warmup
// requests are issued and validated but never measured.
//
// After the run marketbench scrapes each node's /varz and recomputes
// server-side percentiles from the machine-readable latency buckets —
// a cross-check that the client-side numbers aren't an artifact of the
// harness. Followers boot with -max-lag, so the router's health loop
// drains them while they trail the leader; the run asserts they catch
// up. A node that does not exit cleanly at teardown fails the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ipv4market/internal/loadgen"
	"ipv4market/internal/simulation"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "marketbench:", err)
		os.Exit(1)
	}
}

// benchFlags is the parsed command line.
type benchFlags struct {
	marketdBin  string
	out         string
	concurrency int
	warmup      int
	requests    int
	budget      float64
	// world is the resolved config the fleet serves: DefaultConfig
	// with -lirs/-days applied.
	world simulation.Config
}

func parseFlags(args []string) (*benchFlags, error) {
	fs := flag.NewFlagSet("marketbench", flag.ContinueOnError)
	var (
		marketdBin  = fs.String("marketd", "", "path to a built marketd binary (required)")
		out         = fs.String("out", "", "write the BENCH_cluster.json baseline here")
		concurrency = fs.Int("concurrency", 8, "closed-loop worker count")
		warmup      = fs.Int("warmup", 200, "warmup requests before measurement starts")
		requests    = fs.Int("requests", 2000, "measured requests")
		budget      = fs.Float64("error-budget", 0.01, "max tolerated error fraction (transport+HTTP+validation)")
		lirs        = fs.Int("lirs", 0, "world size: LIR count (0: marketd's DefaultConfig)")
		days        = fs.Int("days", 0, "world size: routing window days (0: marketd's DefaultConfig)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case *marketdBin == "":
		return nil, fmt.Errorf("-marketd is required (path to a built marketd binary)")
	case *requests <= 0:
		return nil, fmt.Errorf("-requests must be > 0")
	case *budget < 0:
		return nil, fmt.Errorf("-error-budget must be >= 0")
	case *lirs < 0 || *days < 0:
		return nil, fmt.Errorf("-lirs and -days must be >= 0 (0: marketd's DefaultConfig)")
	}
	f := &benchFlags{
		marketdBin:  *marketdBin,
		out:         *out,
		concurrency: *concurrency,
		warmup:      *warmup,
		requests:    *requests,
		budget:      *budget,
		world:       simulation.DefaultConfig(),
	}
	if *lirs > 0 {
		f.world.NumLIRs = *lirs
	}
	if *days > 0 {
		f.world.RoutingDays = *days
	}
	return f, nil
}

// note is BENCH_cluster.json's description of what the numbers mean.
const note = "closed-loop mixed /v1 workload through the round-robin router over a leader and two followers, " +
	"with a mid-run leader rebuild and follower catch-up; client percentiles from the deterministic streaming " +
	"histogram, cross-checked against each node's /varz latency_counts export. error_budget.violated must be " +
	"false in a committed baseline. Per-node rows report alloc bytes and mallocs per served request (from /varz " +
	"process counter deltas, warmup and rebuild included) plus the zero-copy read split; per-endpoint " +
	"bytes_per_op is mean response-body size on the wire."

// procedure is BENCH_cluster.json's recipe: how it was made and how to
// make it again.
func (f *benchFlags) procedure() string {
	return fmt.Sprintf("recorded by scripts/bench.sh -suite cluster (cmd/benchrecord): go build ./cmd/marketd "+
		"./cmd/marketbench, then marketbench -requests %d (concurrency %d, warmup %d, load seed %d, world seed %d "+
		"with %d LIRs over %d days) boots a leader with a durable store and %d followers replicating with -max-lag %s "+
		"behind the round-robin router over loopback, drives the weighted /v1 endpoint mix closed-loop, triggers a "+
		"rebuild under load, waits for follower catch-up, and writes this file whole. Numbers are machine-dependent "+
		"— compare only against a baseline whose goos/goarch/cpu/num_cpu match. Never edit by hand; re-record instead.",
		f.requests, f.concurrency, f.warmup, loadSeed, f.world.Seed, f.world.NumLIRs, f.world.RoutingDays,
		followers, maxLag)
}

func run(w io.Writer, args []string) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	report, err := runFleet(context.Background(), w, f)
	if err != nil {
		return err
	}
	if f.out != "" {
		b := loadgen.NewClusterBaseline(time.Now().UTC().Format("2006-01-02"), f.procedure(), note)
		b.Topologies = []loadgen.TopologyReport{*report}
		if err := writeBaseline(f.out, &b); err != nil {
			return err
		}
		fmt.Fprintf(w, "marketbench: wrote %s\n", f.out)
	}
	return budgetVerdict(report)
}

// budgetVerdict fails a run whose errors exceed its budget.
func budgetVerdict(t *loadgen.TopologyReport) error {
	if t.ErrorBudget.Violated {
		return fmt.Errorf("%s violated its error budget: %d errors in %d requests (allowed fraction %g)",
			t.Name, t.ErrorBudget.Errors, t.Aggregate.Requests, t.ErrorBudget.AllowedFraction)
	}
	return nil
}

// printResult renders one run's human-readable summary.
func printResult(w io.Writer, res *loadgen.Result, budget float64) {
	fmt.Fprintf(w, "marketbench: %d measured in %.2fs = %.1f req/s (warmup %d)\n",
		res.Completed, res.MeasuredSeconds, res.ThroughputRPS, res.Warmup)
	rows := append([]*loadgen.EndpointStats{res.Aggregate}, res.Endpoints...)
	for _, es := range rows {
		if es.Requests == 0 {
			continue
		}
		fmt.Fprintf(w, "marketbench:   %-20s n=%-6d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms err=%d\n",
			es.Name, es.Requests, es.Hist.Quantile(0.50), es.Hist.Quantile(0.95),
			es.Hist.Quantile(0.99), es.Hist.MaxMS(), es.Errors())
	}
	verdict := "within"
	if res.BudgetViolated(budget) {
		verdict = "VIOLATES"
	}
	fmt.Fprintf(w, "marketbench: error fraction %.5f %s budget %g\n", res.ErrorFraction(), verdict, budget)
}

// writeBaseline marshals the baseline with stable formatting.
func writeBaseline(path string, b *loadgen.ClusterBaseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("encode baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write baseline: %w", err)
	}
	return nil
}
