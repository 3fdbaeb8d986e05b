// Command testgate is check.sh's test gate: it reads the test2json
// stream of one `go test -json ./...` run and fails unless the run was
// clean and every contract test named below passed.
//
//   - Any failed test or subtest, failed package, or failed build fails
//     the gate, and the captured output of each failure is printed.
//   - Every contract must report pass. A skipped contract fails, and so
//     does an absent one: renamed, deleted, or never run. A `go test
//     -run` pattern that matches nothing passes silently; this list
//     does not.
//
// Cached packages replay their test events, so a cached pass counts.
//
// Usage, from the repository root:
//
//	go test -race -json ./... > test.json
//	go run ./scripts/testgate test.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// contract is a set of exact top-level test names in one package.
type contract struct {
	pkg   string
	tests []string
}

// contracts are the tests that pin what the repo promises: the served
// bytes and ETags, build determinism at any worker count, durability,
// the time-travel index, replication and scenario isolation, the
// latency histogram and the load harness, the documentation, and the
// lint self-check.
var contracts = []contract{
	{"ipv4market/internal/serve", []string{
		// Documentation: docs/API.md lists exactly the registered routes,
		// and every markdown link resolves.
		"TestAPIDocsMatchRoutes", "TestMarkdownLinks", "TestRoutesSorted",
		// Determinism and the committed benchmark baselines.
		"TestBuildSnapshotDeterministic", "TestBenchBuildJSONParses", "TestBenchServeJSONParses",
		// Durability: warm start and restart serve identical bytes.
		"TestWarmStartMatchesColdBuild", "TestRestartETagContinuity", "TestSnapshotRecordRestoreRoundTrip",
		// The /v1/asof surface.
		"TestAsofMatchesNaiveReplay", "TestAsofPinnedGeneration", "TestAsofRestoreServesIdenticalViews",
		"TestAsofRequestValidation", "TestAsofDiffAllocs", "TestAsofDiffRowsMatchView",
		// Byte oracles at production scale, the JSON indenter, and the
		// /v1/transfers append encoder against the document it replaced.
		"TestArtifactETagsGolden", "TestQueryETagsGolden", "TestIndentMatchesMarshalIndent",
		"TestTransfersBodyMatchesMarshal",
		// A one-worker DefaultConfig build stays within its allocation
		// budget, the generation it leaves within its live-heap budget,
		// and the /v1/transfers body in a buffer of its size; /varz
		// reports the as-of index's bytes.
		"TestBuildAllocBytes", "TestGenerationLiveBytes", "TestTransfersBodySizedExactly", "TestVarzShape",
		// A panicking stage is a build error naming it at one worker too,
		// and a background rebuild counts it and keeps serving; so is a
		// panic in the study stage or in persist.
		"TestBuildStagePanicNamesStage", "TestRebuildAsyncCountsStagePanic",
		"TestRebuildAsyncCountsStudyPanic", "TestRebuildAsyncCountsPersistPanic",
		// Nothing writes a snapshot once it is published. A write after
		// the publish is a data race that only the race detector reports,
		// so this bites in check.sh's -race run; the tier-1 go test
		// without -race only smoke-tests it.
		"TestPublishedSnapshotNotWritten",
		// The store segment lists artifacts in key order.
		"TestSnapshotRecordKeyOrder",
		// /varz resolves sub-millisecond server latency.
		"TestRouteLatencyResolvesSubMillisecond",
		// Artifact bodies leave in one write over TCP, ranges still slice,
		// and static reads survive the loss of every segment file.
		"TestArtifactOneWriteOverTCP", "TestArtifactRange", "TestStaticReadsSurviveSegmentLoss",
		// The delegation index's binary-search lookup answers what a
		// linear scan does, in the same orders; size=/0 filters prices.
		"TestDelegationLookupMatchesScan", "TestPricesSizeZeroFilters",
	}},
	{"ipv4market/internal/core", []string{
		"TestFigure6WorkersDeterministic",
	}},
	{"ipv4market/internal/parallel", []string{
		// Map recovers a panic into an error at every worker count.
		"TestMapRecoversPanic", "TestMapDeterministicAcrossWorkerCounts",
	}},
	{"ipv4market/internal/rpki", []string{
		"TestEvaluateGridMatchesPerRule",
	}},
	{"ipv4market/internal/simulation", []string{
		"TestCollectorAtMatchesSurveyAt", "TestSurveyAtSanitizeEdgeCases", "TestSurveyAtAllocs",
		"TestSurveyIntoReusesBuffer", "TestVisibleMatchesFloat64",
		// A snapshot build draws one survey per distinct day.
		"TestBuildSurveysEachDayOnce",
	}},
	{"ipv4market/internal/bgp", []string{
		"TestPrefixSurveyMatchesObserve",
	}},
	{"ipv4market/internal/netblock", []string{
		"TestRenderingMatchesFmt",
	}},
	{"ipv4market/internal/store", []string{
		"TestSegmentRoundTrip", "TestAppendAssignsMonotonicGenerations",
		"TestOpenRecoversFromTruncatedTail", "TestOpenRecoversFromBitFlip",
		"TestOpenRecoversFromTrailingGarbage", "TestOpenRecoversAllSegmentsCorrupt",
		// The streamed segment equals the in-memory encoder's image, and
		// an append allocates no copy of it.
		"TestStreamedSegmentMatchesEncode", "TestStreamedSegmentMatchesEncodeAtDefault", "TestAppendAllocs",
		// Every listing entry carries its segment file's CRC, which the
		// replication leader lists and tags segments with.
		"TestGenInfoCRCMatchesFile",
	}},
	{"ipv4market/internal/temporal", []string{
		"TestIndexMatchesNaiveReplay", "TestPointLookupSublinear", "TestRecordRestoreRoundTrip",
		"TestNewDeterministicUnderInputOrder", "TestIndexBuildAllocs", "TestRecordMatchesMarshal",
		// The index is pointer-free columns, and SizeBytes reads their heap.
		"TestColumnsPointerFree", "TestSizeBytesMatchesHeap",
	}},
	{"ipv4market/internal/replicate", []string{
		"TestLeaderFollowerSync", "TestFlippedBytesQuarantined", "TestTruncatedStreamResumed",
		"TestLeaderFollowerEndToEnd",
		// Cancelling a follower's Run ends its wait between polls.
		"TestRunStopsOnCancel",
	}},
	{"ipv4market/internal/scenario", []string{
		"TestMatrixDeterminism", "TestScenarioIsolation", "TestDefaultAlias", "TestWarmStartMatrix",
		"TestGoldenConfigsReplay", "TestSpecAtLIRsCapBuilds",
		// No scenario name can shadow a route.
		"TestReservedNamesCoverRoutes",
	}},
	{"ipv4market/internal/latency", []string{
		"TestHistogramQuantileMatchesExact", "TestHistogramMergeAssociativity",
	}},
	{"ipv4market/internal/loadgen", []string{
		"TestClosedLoopAccounting", "TestClosedLoopCancellation", "TestBenchClusterJSONParses",
	}},
	{"ipv4market/internal/lint", []string{
		// Every analyzer over the module, and no stale //lint:ignore.
		"TestSelfCheck",
	}},
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/testgate <go-test-json-file>")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "testgate:", err)
		os.Exit(2)
	}
	defer f.Close()
	problems, passed, err := check(f, contracts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "testgate:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "testgate:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	n := 0
	for _, c := range contracts {
		n += len(c.tests)
	}
	fmt.Printf("testgate: %d tests passed, all %d contracts among them\n", passed, n)
}

// event is the part of a test2json record the gate reads. Build events
// carry ImportPath instead of Package.
type event struct {
	Action     string
	Package    string
	ImportPath string
	Test       string
	Output     string
}

type key struct{ pkg, test string }

// check reads a test2json stream from r. It writes the captured output
// of every failed test, package and build to w, and returns one line per
// problem plus the number of tests and subtests that passed.
func check(r io.Reader, contracts []contract, w io.Writer) (problems []string, passed int, err error) {
	output := make(map[key][]string)
	result := make(map[key]string)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, 0, fmt.Errorf("line %d is not a test2json event: %q", line, sc.Text())
		}
		k := key{e.Package, e.Test}
		switch e.Action {
		case "output":
			output[k] = append(output[k], e.Output)
		case "build-output":
			k = key{pkg: e.ImportPath}
			output[k] = append(output[k], e.Output)
		case "build-fail":
			problems = append(problems, "build failed: "+e.ImportPath)
			fmt.Fprint(w, strings.Join(output[key{pkg: e.ImportPath}], ""))
		case "pass", "skip":
			result[k] = e.Action
			if e.Action == "pass" && e.Test != "" {
				passed++
			}
		case "fail":
			result[k] = e.Action
			if e.Test == "" {
				problems = append(problems, "package failed: "+e.Package)
			} else {
				problems = append(problems, fmt.Sprintf("test failed: %s.%s", e.Package, e.Test))
			}
			fmt.Fprint(w, strings.Join(output[k], ""))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	for _, c := range contracts {
		for _, t := range c.tests {
			switch got := result[key{c.pkg, t}]; got {
			case "pass":
			case "":
				problems = append(problems, fmt.Sprintf("contract %s.%s did not run: renamed, deleted or filtered out", c.pkg, t))
			default:
				problems = append(problems, fmt.Sprintf("contract %s.%s reported %s, not pass", c.pkg, t, got))
			}
		}
	}
	return problems, passed, nil
}
