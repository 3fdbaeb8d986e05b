package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchBaseline mirrors the schema cmd/benchrecord writes to the
// BENCH_*.json files at the repo root, so a malformed baseline fails in
// CI rather than when someone tries to read it.
type benchBaseline struct {
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
	// Fingerprint is the suite's benchFingerprint at recording time.
	Fingerprint json.RawMessage `json:"fingerprint"`
	Results     []struct {
		Name     string `json:"name"`
		NsPerOp  int64  `json:"ns_per_op"`
		BPerOp   int64  `json:"bytes_per_op"`
		AllocsOp int64  `json:"allocs_per_op"`
	} `json:"results"`
}

// loadBaseline reads and structurally validates one baseline file:
// valid JSON, the expected suite, positive times, and the machine
// metadata cmd/benchrecord stamps (a baseline without it cannot be
// compared against a re-recording).
func loadBaseline(t *testing.T, file, suite string) benchBaseline {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var b benchBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("%s is not valid JSON: %v", file, err)
	}
	if b.Suite != suite {
		t.Errorf("suite = %q, want %q", b.Suite, suite)
	}
	if b.Package != "ipv4market/internal/serve" {
		t.Errorf("package = %q, want ipv4market/internal/serve", b.Package)
	}
	if b.GOOS == "" || b.GOARCH == "" || b.GoVersion == "" {
		t.Errorf("missing platform metadata: goos=%q goarch=%q go_version=%q", b.GOOS, b.GOARCH, b.GoVersion)
	}
	if b.NumCPU < 1 || b.GOMAXPROCS < 1 {
		t.Errorf("implausible machine: num_cpu=%d gomaxprocs=%d, want >= 1", b.NumCPU, b.GOMAXPROCS)
	}
	if !strings.Contains(b.Procedure, "scripts/bench.sh") {
		t.Errorf("procedure does not document re-recording via scripts/bench.sh: %q", b.Procedure)
	}
	if len(b.Results) == 0 {
		t.Fatal("baseline has no results")
	}
	for _, r := range b.Results {
		if r.NsPerOp <= 0 {
			t.Errorf("result %q: ns_per_op = %d, want > 0", r.Name, r.NsPerOp)
		}
	}
	return b
}

// checkFingerprint fails unless the baseline was recorded against fp,
// the suite's current worlds and stages.
func checkFingerprint(t *testing.T, b benchBaseline, file, suite string, fp benchFingerprint) {
	t.Helper()
	want, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, b.Fingerprint); err != nil {
		t.Fatalf("%s: fingerprint: %v", file, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s was recorded against\n%s\nbut %s now measures\n%s\nre-record with scripts/bench.sh -suite %s",
			file, got.Bytes(), suite, want, suite)
	}
}

// TestBenchBuildJSONParses keeps the BenchmarkSnapshotBuild baseline
// well-formed and current: it needs the serial (workers=1) reference
// row, and a baseline recorded against other worlds or another stage
// list (buildFingerprint) fails.
func TestBenchBuildJSONParses(t *testing.T) {
	b := loadBaseline(t, "BENCH_build.json", "BenchmarkSnapshotBuild")
	checkFingerprint(t, b, "BENCH_build.json", "build", buildFingerprint())
	serial := false
	for _, r := range b.Results {
		if r.Name == "workers=1" {
			serial = true
		}
	}
	if !serial {
		t.Error("baseline lacks the serial workers=1 reference row")
	}
}

// TestBenchServeJSONParses keeps the BenchmarkSnapshotServe baseline
// well-formed and current: every sub-benchmark the suite runs
// (serveBenchRows) needs a row, and the baseline must have been recorded
// against the suite's world and stage list (serveFingerprint), so
// changing either without re-recording the baseline (scripts/bench.sh
// -suite serve) fails here.
func TestBenchServeJSONParses(t *testing.T) {
	b := loadBaseline(t, "BENCH_serve.json", "BenchmarkSnapshotServe")
	checkFingerprint(t, b, "BENCH_serve.json", "serve", serveFingerprint())
	have := make(map[string]bool, len(b.Results))
	for _, r := range b.Results {
		have[r.Name] = true
	}
	for _, row := range serveBenchRows {
		if !have[row.name] {
			t.Errorf("baseline lacks the %q row; re-record with scripts/bench.sh -suite serve", row.name)
		}
	}
}
