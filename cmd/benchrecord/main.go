// Command benchrecord re-records the repository's benchmark baselines
// (BENCH_build.json, BENCH_serve.json, BENCH_cluster.json at the repo
// root). The build and serve suites run through `go test -bench` and
// the JSON is rewritten with the parsed results plus the recording
// machine's metadata (CPU model, core count, GOMAXPROCS, Go version).
// The cluster suite builds marketd and marketbench, then boots real
// process topologies (leader-only and leader+2 followers behind a
// round-robin router) and drives the mixed /v1 workload at them;
// cmd/marketbench writes BENCH_cluster.json itself. scripts/bench.sh
// is the front door:
//
//	scripts/bench.sh            # re-record all baselines
//	scripts/bench.sh -suite build
//	scripts/bench.sh -suite cluster
//
// Benchmark numbers are machine-dependent; the embedded metadata is
// what makes a baseline comparable (same hardware) or visibly not
// (different hardware). The files are never edited by hand.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suiteDef describes one recordable benchmark suite.
type suiteDef struct {
	// Flag is the -suite selector ("build", "serve").
	Flag string
	// Suite is the Go benchmark function name.
	Suite string
	// File is the baseline filename at the repo root.
	File string
	// Benchtime is the default -benchtime (build is seconds-per-op, so
	// a fixed iteration count keeps recording time bounded).
	Benchtime string
	// Note documents what the numbers mean, carried into the JSON.
	Note string
}

const benchPackage = "ipv4market/internal/serve"

var suites = []suiteDef{
	{
		Flag:      "build",
		Suite:     "BenchmarkSnapshotBuild",
		File:      "BENCH_build.json",
		Benchtime: "3x",
		Note: "full snapshot build (world generation + every analysis pipeline + encoding) at different " +
			"build-stage worker counts, on the test world (workers=N rows) and on DefaultConfig " +
			"(default/workers=N rows); workers=1 is the serial reference and the workers=NumCPU row is " +
			"what marketd does at boot. The observable speedup is bounded by the hardware's core count " +
			"and by the longest stage (utilization); per-stage wall-clock splits are exported on /varz " +
			"as snapshot.build_stages. Determinism across worker counts is pinned by TestBuildSnapshotDeterministic.",
	},
	{
		Flag:      "serve",
		Suite:     "BenchmarkSnapshotServe",
		File:      "BENCH_serve.json",
		Benchtime: "0.5s",
		Note: "parallel (RunParallel) request cost against a prebuilt, store-backed snapshot; snapshot build " +
			"excluded by design. Static artifact rows serve zero-copy from the sealed segment file. Responses " +
			"are discarded through a ReaderFrom writer with a pooled copy buffer (like a production net/http " +
			"connection), so bytes_per_op measures handler allocations, not harness buffer growth — numbers " +
			"recorded with the pre-zero-copy recorder harness are not comparable.",
	},
}

// result is one benchmark row in the baseline file.
type result struct {
	Name     string `json:"name"`
	NsPerOp  int64  `json:"ns_per_op"`
	BPerOp   int64  `json:"bytes_per_op"`
	AllocsOp int64  `json:"allocs_per_op"`
}

// baseline is the BENCH_*.json schema. internal/serve's
// TestBenchBaselinesWellFormed reads these files back, so the two
// schemas evolve together.
type baseline struct {
	Suite      string   `json:"suite"`
	Package    string   `json:"package"`
	Recorded   string   `json:"recorded"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Benchtime  string   `json:"benchtime"`
	Procedure  string   `json:"procedure"`
	Note       string   `json:"note"`
	Results    []result `json:"results"`
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchrecord:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("benchrecord", flag.ContinueOnError)
	var (
		which       = fs.String("suite", "all", `which baseline to re-record: "build", "serve", "cluster", or "all"`)
		dir         = fs.String("dir", ".", "repository root (where the BENCH_*.json files live)")
		benchtime   = fs.String("benchtime", "", "override the suite's default -benchtime (build/serve)")
		clusterReqs = fs.Int("cluster-requests", 5000, "measured requests per topology for the cluster suite")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ran := 0
	for _, s := range suites {
		if *which != "all" && *which != s.Flag {
			continue
		}
		ran++
		if *benchtime != "" {
			s.Benchtime = *benchtime
		}
		if err := record(w, *dir, s); err != nil {
			return err
		}
	}
	if *which == "all" || *which == "cluster" {
		ran++
		if err := recordCluster(w, *dir, *clusterReqs); err != nil {
			return err
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown -suite %q (want build, serve, cluster, or all)", *which)
	}
	return nil
}

// recordCluster re-records BENCH_cluster.json: it builds marketd and
// marketbench, then lets marketbench boot and drive the two recorded
// topologies (leader-only, leader+2 followers behind the router) and
// write the baseline itself — the schema lives in internal/loadgen and
// TestBenchClusterJSONParses reads the file back through it.
func recordCluster(w io.Writer, dir string, requests int) error {
	tmp, err := os.MkdirTemp("", "benchrecord-cluster")
	if err != nil {
		return fmt.Errorf("benchrecord: %w", err)
	}
	defer os.RemoveAll(tmp)

	for _, pkg := range []string{"marketd", "marketbench"} {
		fmt.Fprintf(w, "benchrecord: building %s...\n", pkg)
		cmd := exec.Command("go", "build", "-o", filepath.Join(tmp, pkg), "./cmd/"+pkg)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("benchrecord: build %s: %w\n%s", pkg, err, out)
		}
	}

	args := []string{
		"-marketd", filepath.Join(tmp, "marketd"),
		"-topologies", "0,2",
		"-requests", strconv.Itoa(requests),
		"-out", filepath.Join(dir, "BENCH_cluster.json"),
		"-procedure", "recorded by scripts/bench.sh -suite cluster (cmd/benchrecord): go build ./cmd/marketd " +
			"./cmd/marketbench, then marketbench -topologies 0,2 -requests " + strconv.Itoa(requests) + " boots each " +
			"topology over loopback (leader with a durable store; followers replicating with -max-lag 2 behind the " +
			"round-robin router), drives the weighted /v1 endpoint mix closed-loop, triggers a rebuild under load, " +
			"waits for follower catch-up, and writes this file whole. Numbers are machine-dependent — compare only " +
			"against a baseline whose goos/goarch/cpu/num_cpu match. Never edit by hand; re-record instead.",
		"-note", "closed-loop mixed /v1 workload per topology with a mid-run leader rebuild and follower catch-up; " +
			"client percentiles from the deterministic streaming histogram, cross-checked against each node's " +
			"/varz latency_counts export. error_budget.violated must be false in a committed baseline. " +
			"Per-node rows report alloc bytes and mallocs per served request (from /varz process counter deltas, " +
			"warmup and rebuild included) plus the zero-copy read split; per-endpoint bytes_per_op is mean " +
			"response-body size on the wire.",
	}
	fmt.Fprintf(w, "benchrecord: running marketbench (%d requests per topology)...\n", requests)
	cmd := exec.Command(filepath.Join(tmp, "marketbench"), args...)
	cmd.Dir = dir
	cmd.Stdout = w
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchrecord: marketbench: %w", err)
	}
	fmt.Fprintf(w, "benchrecord: wrote %s\n", filepath.Join(dir, "BENCH_cluster.json"))
	return nil
}

// record runs one suite and rewrites its baseline file.
func record(w io.Writer, dir string, s suiteDef) error {
	fmt.Fprintf(w, "benchrecord: running %s (-benchtime %s)...\n", s.Suite, s.Benchtime)
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "^"+s.Suite+"$", "-benchmem", "-benchtime", s.Benchtime,
		benchPackage)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("benchrecord: %s: %w\n%s", s.Suite, err, out)
	}

	results, cpu, err := parseBenchOutput(s.Suite, string(out))
	if err != nil {
		return err
	}
	b := newBaseline(s, results, cpu, time.Now())
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("benchrecord: encode %s: %w", s.File, err)
	}
	path := filepath.Join(dir, s.File)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("benchrecord: %w", err)
	}
	fmt.Fprintf(w, "benchrecord: wrote %s (%d result rows, cpu %q)\n", path, len(results), cpu)
	return nil
}

// newBaseline assembles the baseline document for one suite run,
// stamping the recording machine's metadata alongside the numbers.
func newBaseline(s suiteDef, results []result, cpu string, now time.Time) baseline {
	return baseline{
		Suite:      s.Suite,
		Package:    benchPackage,
		Recorded:   now.UTC().Format("2006-01-02"),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Benchtime:  s.Benchtime,
		Procedure: "recorded by scripts/bench.sh (cmd/benchrecord): go test -run '^$' -bench '^" + s.Suite +
			"$' -benchmem -benchtime " + s.Benchtime + " " + benchPackage + ", output parsed and this file " +
			"rewritten whole. Numbers are machine-dependent — compare only against a baseline whose " +
			"goos/goarch/cpu/num_cpu match. Never edit by hand; re-record instead.",
		Note:    s.Note,
		Results: results,
	}
}

// benchLine matches one `go test -bench` result row:
//
//	BenchmarkSnapshotServe/table1-4  218061  11011 ns/op  9787 B/op  38 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// gomaxprocsSuffix is the -N the testing package appends to bench names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts the result rows for suite (subtest names
// normalized: suite prefix and GOMAXPROCS suffix stripped) and the
// "cpu:" banner go test prints.
func parseBenchOutput(suite, out string) ([]result, string, error) {
	var (
		results []result
		cpu     string
	)
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		name = strings.TrimPrefix(name, suite)
		name = strings.TrimPrefix(name, "/")
		if name == "" {
			name = suite
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, "", fmt.Errorf("benchrecord: parse %q: %w", line, err)
		}
		r := result{Name: name, NsPerOp: int64(ns)}
		if m[3] != "" {
			if r.BPerOp, err = strconv.ParseInt(m[3], 10, 64); err != nil {
				return nil, "", fmt.Errorf("benchrecord: parse %q: %w", line, err)
			}
		}
		if m[4] != "" {
			if r.AllocsOp, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return nil, "", fmt.Errorf("benchrecord: parse %q: %w", line, err)
			}
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		return nil, "", fmt.Errorf("benchrecord: no %s result rows in go test output:\n%s", suite, out)
	}
	return results, cpu, nil
}
