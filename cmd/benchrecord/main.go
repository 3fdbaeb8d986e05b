// Command benchrecord re-records the repository's benchmark baselines
// (BENCH_build.json, BENCH_serve.json, BENCH_cluster.json at the repo
// root). The build and serve suites run through `go test -bench` and
// the JSON is rewritten with the parsed results, the recording machine's
// metadata (CPU model, core count, GOMAXPROCS, Go version) and the
// suite's fingerprint: the world configs and build stages it measured,
// which the suite logs and internal/serve's baseline tests compare with
// the suite's current ones.
// The cluster suite builds marketd and marketbench, then lets
// marketbench boot a replicated fleet (a leader and 2 followers behind
// a round-robin router) on marketd's DefaultConfig world and drive the
// mixed /v1 workload through it; marketbench writes BENCH_cluster.json
// itself, procedure and note included. scripts/bench.sh is the front
// door:
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
	"slices"
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
	// Count is the go test -count: each row is recorded as the median of
	// that many runs, so one slow run cannot move a baseline.
	Count int
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
		Count:     5,
		Note: "full snapshot build (world generation + every analysis pipeline + encoding) at different " +
			"build-stage worker counts, on the test world (workers=N rows) and on DefaultConfig " +
			"(default/workers=N rows); workers=1 is the serial reference and the workers=NumCPU row is " +
			"what marketd does at boot. The observable speedup is bounded by the hardware's core count, " +
			"by the study stage, which runs alone before the others, and by the longest artifact stage " +
			"(utilization, about twice any other); per-stage wall-clock splits are exported on /varz " +
			"as snapshot.build_stages. cpu_ms_per_op is the process's user+system CPU time per build " +
			"(getrusage), garbage collection included. Determinism across worker counts is pinned by " +
			"TestBuildSnapshotDeterministic.",
	},
	{
		Flag:      "serve",
		Suite:     "BenchmarkSnapshotServe",
		File:      "BENCH_serve.json",
		Benchtime: "0.5s",
		Count:     1,
		Note: "parallel (RunParallel) request cost against a prebuilt, store-backed snapshot; snapshot build " +
			"excluded by design. Every artifact body, static or computed, is written from memory in one Write. " +
			"Responses are discarded through a writer that also implements ReaderFrom with a pooled copy buffer " +
			"(like a production net/http connection), so bytes_per_op measures handler allocations, not harness " +
			"buffer growth.",
	},
}

// result is one benchmark row in the baseline file. CPUMsPerOp is the
// process CPU time per operation a suite reports as cpu-ms/op (the
// build suite does); rows of a suite without it omit the column.
type result struct {
	Name       string  `json:"name"`
	NsPerOp    int64   `json:"ns_per_op"`
	CPUMsPerOp float64 `json:"cpu_ms_per_op,omitempty"`
	BPerOp     int64   `json:"bytes_per_op"`
	AllocsOp   int64   `json:"allocs_per_op"`
}

// baseline is the BENCH_*.json schema. internal/serve's
// TestBenchBuildJSONParses and TestBenchServeJSONParses read these files
// back, so the two schemas evolve together.
type baseline struct {
	Suite      string `json:"suite"`
	Package    string `json:"package"`
	Recorded   string `json:"recorded"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Benchtime  string `json:"benchtime"`
	Procedure  string `json:"procedure"`
	Note       string `json:"note"`
	// Fingerprint is the JSON the suite logged as "fingerprint {...}":
	// its world configs and build stages, copied verbatim.
	Fingerprint json.RawMessage `json:"fingerprint"`
	Results     []result        `json:"results"`
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
		clusterReqs = fs.Int("cluster-requests", 5000, "measured requests for the cluster suite")
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
// marketbench, then lets marketbench boot and drive the fleet and write
// the baseline itself — the schema lives in internal/loadgen and
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
		"-requests", strconv.Itoa(requests),
		"-out", filepath.Join(dir, "BENCH_cluster.json"),
	}
	fmt.Fprintf(w, "benchrecord: running marketbench (%d requests)...\n", requests)
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
	fmt.Fprintf(w, "benchrecord: running %s (-benchtime %s -count %d)...\n", s.Suite, s.Benchtime, s.Count)
	// -v: a parent benchmark's log, where the fingerprint is, prints only
	// in verbose mode.
	cmd := exec.Command("go", "test", "-v", "-run", "^$",
		"-bench", "^"+s.Suite+"$", "-benchmem", "-benchtime", s.Benchtime,
		"-count", strconv.Itoa(s.Count), benchPackage)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("benchrecord: %s: %w\n%s", s.Suite, err, out)
	}

	results, cpu, err := parseBenchOutput(s.Suite, string(out))
	if err != nil {
		return err
	}
	fp, err := parseFingerprint(s.Suite, string(out))
	if err != nil {
		return err
	}
	b := newBaseline(s, results, cpu, fp, time.Now())
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
func newBaseline(s suiteDef, results []result, cpu string, fp json.RawMessage, now time.Time) baseline {
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
		Procedure: "recorded by scripts/bench.sh (cmd/benchrecord): go test -v -run '^$' -bench '^" + s.Suite +
			"$' -benchmem -benchtime " + s.Benchtime + " -count " + strconv.Itoa(s.Count) + " " + benchPackage +
			", output parsed and this file rewritten whole; each row holds, per column, the median of its " +
			strconv.Itoa(s.Count) + " run(s). Numbers are machine-dependent — compare only against a baseline " +
			"whose goos/goarch/cpu/num_cpu match. Never edit by hand; re-record instead.",
		Note:        s.Note,
		Fingerprint: fp,
		Results:     results,
	}
}

// benchLine matches one `go test -bench` result row, with the build
// suite's cpu-ms/op metric if it reports one:
//
//	BenchmarkSnapshotServe/table1-4  218061  11011 ns/op  9787 B/op  38 allocs/op
//	BenchmarkSnapshotBuild/workers=1-2  3  88512345 ns/op  97.81 cpu-ms/op  18789084 B/op  66729 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) cpu-ms/op)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// fingerprintLine matches the suite's logged fingerprint:
//
//	bench_test.go:78: fingerprint {"worlds":{...},"stages":[...]}
var fingerprintLine = regexp.MustCompile(`^\S+\.go:\d+: fingerprint (\{.*\})$`)

// parseFingerprint extracts the fingerprint the suite logged; a suite
// run without one cannot be checked for staleness, so it is an error.
func parseFingerprint(suite, out string) (json.RawMessage, error) {
	for _, line := range strings.Split(out, "\n") {
		m := fingerprintLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		if !json.Valid([]byte(m[1])) {
			return nil, fmt.Errorf("benchrecord: %s fingerprint is not JSON: %s", suite, m[1])
		}
		return json.RawMessage(m[1]), nil
	}
	return nil, fmt.Errorf("benchrecord: %s logged no fingerprint line", suite)
}

// gomaxprocsSuffix is the -N the testing package appends to bench names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts the result rows for suite (subtest names
// normalized: suite prefix and GOMAXPROCS suffix stripped) and the
// "cpu:" banner go test prints. Rows a -count run repeats fold into one
// row per name, in first-seen order, holding each column's median.
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
			if r.CPUMsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
				return nil, "", fmt.Errorf("benchrecord: parse %q: %w", line, err)
			}
		}
		if m[4] != "" {
			if r.BPerOp, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return nil, "", fmt.Errorf("benchrecord: parse %q: %w", line, err)
			}
		}
		if m[5] != "" {
			if r.AllocsOp, err = strconv.ParseInt(m[5], 10, 64); err != nil {
				return nil, "", fmt.Errorf("benchrecord: parse %q: %w", line, err)
			}
		}
		results = append(results, r)
	}
	if len(results) == 0 {
		return nil, "", fmt.Errorf("benchrecord: no %s result rows in go test output:\n%s", suite, out)
	}
	return medianRows(results), cpu, nil
}

// medianRows folds the rows sharing a name into one whose every column
// is the median of theirs (the upper middle for an even count).
func medianRows(rows []result) []result {
	var names []string
	byName := make(map[string][]result)
	for _, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]result, len(names))
	for i, name := range names {
		runs := byName[name]
		out[i] = result{
			Name:       name,
			NsPerOp:    median(runs, func(r result) int64 { return r.NsPerOp }),
			CPUMsPerOp: median(runs, func(r result) float64 { return r.CPUMsPerOp }),
			BPerOp:     median(runs, func(r result) int64 { return r.BPerOp }),
			AllocsOp:   median(runs, func(r result) int64 { return r.AllocsOp }),
		}
	}
	return out
}

// median returns the median of one column over runs (the upper middle
// for an even count).
func median[T int64 | float64](runs []result, col func(result) T) T {
	vals := make([]T, len(runs))
	for i, r := range runs {
		vals[i] = col(r)
	}
	slices.Sort(vals)
	return vals[len(vals)/2]
}
