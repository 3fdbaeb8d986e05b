package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ipv4market/internal/serve
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSnapshotServe
    bench_test.go:78: fingerprint {"worlds":{"test":{"Seed":1,"NumLIRs":14}},"stages":["table1","temporal"]}
BenchmarkSnapshotServe/table1
BenchmarkSnapshotServe/table1-4          218061     11011 ns/op    9787 B/op    38 allocs/op
BenchmarkSnapshotServe/prices_full-4       8406     71248 ns/op  220792 B/op    39 allocs/op
BenchmarkSnapshotServe/table1_304-4      139862      8602.5 ns/op  8040 B/op    35 allocs/op
PASS
ok   ipv4market/internal/serve  7.031s
`

func TestParseBenchOutput(t *testing.T) {
	results, cpu, err := parseBenchOutput("BenchmarkSnapshotServe", sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", cpu)
	}
	want := []result{
		{Name: "table1", NsPerOp: 11011, BPerOp: 9787, AllocsOp: 38},
		{Name: "prices_full", NsPerOp: 71248, BPerOp: 220792, AllocsOp: 39},
		{Name: "table1_304", NsPerOp: 8602, BPerOp: 8040, AllocsOp: 35},
	}
	if len(results) != len(want) {
		t.Fatalf("parsed %d rows, want %d: %+v", len(results), len(want), results)
	}
	for i, r := range results {
		if r != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestParseFingerprint(t *testing.T) {
	fp, err := parseFingerprint("BenchmarkSnapshotServe", sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"worlds":{"test":{"Seed":1,"NumLIRs":14}},"stages":["table1","temporal"]}`; string(fp) != want {
		t.Errorf("fingerprint = %s, want %s", fp, want)
	}
	if _, err := parseFingerprint("BenchmarkSnapshotServe", "PASS\nok x 0.1s\n"); err == nil {
		t.Error("output without a fingerprint accepted")
	}
}

func TestParseBenchOutputRejectsEmpty(t *testing.T) {
	if _, _, err := parseBenchOutput("BenchmarkSnapshotServe", "PASS\nok x 0.1s\n"); err == nil {
		t.Error("output without result rows accepted")
	}
}

// TestBaselineDocument checks the written JSON carries the machine
// metadata the serve-side baseline test (and a human comparing two
// recordings) depends on.
func TestBaselineDocument(t *testing.T) {
	results, cpu, err := parseBenchOutput("BenchmarkSnapshotServe", sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := parseFingerprint("BenchmarkSnapshotServe", sampleOutput)
	if err != nil {
		t.Fatal(err)
	}
	b := newBaseline(suites[1], results, cpu, fp, time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"suite", "package", "recorded", "goos", "goarch", "cpu",
		"num_cpu", "gomaxprocs", "go_version", "benchtime", "procedure", "note", "fingerprint", "results"} {
		if _, ok := back[key]; !ok {
			t.Errorf("baseline document lacks %q", key)
		}
	}
	if back["recorded"] != "2026-08-06" {
		t.Errorf("recorded = %v", back["recorded"])
	}
	if n, _ := back["num_cpu"].(float64); n < 1 {
		t.Errorf("num_cpu = %v, want >= 1", back["num_cpu"])
	}
	if !strings.Contains(b.Procedure, "scripts/bench.sh") {
		t.Error("procedure does not name scripts/bench.sh")
	}
}

func TestUnknownSuiteFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"-suite", "nope"}); err == nil {
		t.Error("unknown -suite accepted")
	}
}
