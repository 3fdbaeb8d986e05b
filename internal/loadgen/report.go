package loadgen

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// This file is the BENCH_cluster.json schema. cmd/marketbench writes
// the file, TestBenchClusterJSONParses reads it back through the same
// types, and the field names follow the BENCH_build/BENCH_serve
// machine-metadata discipline (goos/goarch/cpu/num_cpu/gomaxprocs/
// go_version/procedure/note) so every baseline in the repo is compared
// the same way: only against a recording from like hardware.

// ClusterBaseline is the whole BENCH_cluster.json document.
type ClusterBaseline struct {
	Suite      string `json:"suite"` // always "marketbench"
	Recorded   string `json:"recorded"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Procedure  string `json:"procedure"`
	Note       string `json:"note"`

	Topologies []TopologyReport `json:"topologies"`
}

// TopologyReport is one fleet's load run: a leader and its followers,
// driven through the round-robin router.
type TopologyReport struct {
	// Name identifies the topology ("leader+2").
	Name string `json:"name"`
	// Followers is the follower count behind the router.
	Followers int `json:"followers"`

	// World identifies the synthetic world the fleet served.
	World WorldParams `json:"world"`

	// Load echoes the workload parameters that produced the numbers.
	Load LoadParams `json:"load"`

	ThroughputRPS   float64 `json:"throughput_rps"`
	MeasuredSeconds float64 `json:"measured_seconds"`

	ErrorBudget BudgetReport `json:"error_budget"`

	Aggregate EndpointReport   `json:"aggregate"`
	Endpoints []EndpointReport `json:"endpoints"`

	// Server carries the server-side cross-check: per node and driven
	// route, the request count and percentiles recomputed from the
	// /varz latency buckets. Client- and server-side percentiles will
	// not be identical (client time includes the router hop and
	// connection handling; bucket layouts differ) but must agree to
	// within the bucket resolution — gross disagreement means one side
	// is lying.
	Server []ServerRouteReport `json:"server,omitempty"`

	// Events are the orchestration milestones exercised under load
	// (rebuild trigger, leader swap, follower catch-up), with wall-clock
	// offsets from the start of the measured phase.
	Events []EventReport `json:"events,omitempty"`

	// Nodes carries per-node allocation accounting over the run, from
	// /varz process counters scraped before and after the load.
	Nodes []NodeReport `json:"nodes,omitempty"`
}

// NodeReport is one node's process-level allocation cost across the
// load run: heap bytes and allocation count per served request, derived
// from the deltas of /varz process.total_alloc_bytes, process.mallocs,
// and the per-route request counters between two scrapes. The deltas
// span warmup and the mid-run rebuild as well as the measured phase, so
// the per-request figures are an upper bound on pure serving cost — the
// useful property is comparability run-over-run.
type NodeReport struct {
	Node                 string  `json:"node"`
	Requests             int64   `json:"requests"`
	AllocBytesPerRequest float64 `json:"alloc_bytes_per_request"`
	MallocsPerRequest    float64 `json:"mallocs_per_request"`
}

// NewNodeReport derives one node's allocation accounting from a pair of
// /varz scrapes. The boolean is false when either scrape predates the
// process counters or no requests were served between them.
func NewNodeReport(node string, before, after *ServerVarz) (NodeReport, bool) {
	if before == nil || after == nil || before.Process == nil || after.Process == nil {
		return NodeReport{}, false
	}
	requests := after.TotalRequests() - before.TotalRequests()
	if requests <= 0 {
		return NodeReport{}, false
	}
	return NodeReport{
		Node:                 node,
		Requests:             requests,
		AllocBytesPerRequest: float64(after.Process.TotalAllocBytes-before.Process.TotalAllocBytes) / float64(requests),
		MallocsPerRequest:    float64(after.Process.Mallocs-before.Process.Mallocs) / float64(requests),
	}, true
}

// WorldParams pins the synthetic world the topology served.
type WorldParams struct {
	Seed int64 `json:"seed"`
	LIRs int   `json:"lirs"`
	Days int   `json:"days"`
}

// LoadParams echoes the closed-loop runner spec.
type LoadParams struct {
	Seed           uint64 `json:"seed"`
	Concurrency    int    `json:"concurrency"`
	WarmupRequests int    `json:"warmup_requests"`
	Requests       int    `json:"requests"`
}

// BudgetReport is the run's error budget verdict.
type BudgetReport struct {
	AllowedFraction float64 `json:"allowed_fraction"`
	ErrorFraction   float64 `json:"error_fraction"`
	Errors          int64   `json:"errors"`
	Violated        bool    `json:"violated"`
}

// EndpointReport is one endpoint's (or the aggregate's) client-side
// stats.
type EndpointReport struct {
	Name               string `json:"name"`
	Route              string `json:"route,omitempty"`
	Requests           int64  `json:"requests"`
	TransportErrors    int64  `json:"transport_errors"`
	HTTPErrors         int64  `json:"http_errors"`
	ValidationFailures int64  `json:"validation_failures"`
	Bytes              int64  `json:"bytes"`
	// BytesPerOp is the mean response-body size (Bytes / Requests) —
	// the client-side counterpart of a Go benchmark's bytes/op, for
	// eyeballing wire cost per endpoint.
	BytesPerOp float64 `json:"bytes_per_op"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// ServerRouteReport is one node's server-side view of one route.
type ServerRouteReport struct {
	Node     string  `json:"node"` // "leader", "follower1", ...
	Route    string  `json:"route"`
	Requests int64   `json:"requests"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// EventReport is one orchestration milestone under load.
type EventReport struct {
	// Name: "rebuild_triggered", "leader_swapped", "followers_caught_up".
	Name string `json:"name"`
	// AtSeconds is the offset from the start of the measured phase.
	AtSeconds float64 `json:"at_seconds"`
	Detail    string  `json:"detail,omitempty"`
}

// NewEndpointReport renders one runner EndpointStats row.
func NewEndpointReport(es *EndpointStats) EndpointReport {
	var bytesPerOp float64
	if es.Requests > 0 {
		bytesPerOp = float64(es.Bytes) / float64(es.Requests)
	}
	return EndpointReport{
		BytesPerOp:         bytesPerOp,
		Name:               es.Name,
		Route:              es.Route,
		Requests:           es.Requests,
		TransportErrors:    es.TransportErrors,
		HTTPErrors:         es.HTTPErrors,
		ValidationFailures: es.ValidationFailures,
		Bytes:              es.Bytes,
		MeanMS:             es.Hist.MeanMS(),
		P50MS:              es.Hist.Quantile(0.50),
		P95MS:              es.Hist.Quantile(0.95),
		P99MS:              es.Hist.Quantile(0.99),
		MaxMS:              es.Hist.MaxMS(),
	}
}

// NewTopologyReport renders a Result (plus its parameters) into a
// report row; the caller fills World, Server, Events, and Nodes.
func NewTopologyReport(name string, followers int, budget float64, res *Result) TopologyReport {
	t := TopologyReport{
		Name:      name,
		Followers: followers,
		Load: LoadParams{
			Seed:           res.Seed,
			Concurrency:    res.Concurrency,
			WarmupRequests: int(res.Warmup),
			Requests:       int(res.Completed),
		},
		ThroughputRPS:   res.ThroughputRPS,
		MeasuredSeconds: res.MeasuredSeconds,
		ErrorBudget: BudgetReport{
			AllowedFraction: budget,
			ErrorFraction:   res.ErrorFraction(),
			Errors:          res.Aggregate.Errors(),
			Violated:        res.BudgetViolated(budget),
		},
		Aggregate: NewEndpointReport(res.Aggregate),
	}
	for _, es := range res.Endpoints {
		t.Endpoints = append(t.Endpoints, NewEndpointReport(es))
	}
	return t
}

// NewClusterBaseline stamps the document frame: suite, date, and the
// recording machine's metadata (the same fields cmd/benchrecord writes,
// so all BENCH_*.json files are compared under the same rule).
func NewClusterBaseline(recorded, procedure, note string) ClusterBaseline {
	return ClusterBaseline{
		Suite:      "marketbench",
		Recorded:   recorded,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Procedure:  procedure,
		Note:       note,
	}
}

// Validate structurally checks a decoded baseline: machine metadata
// present, at least one topology, coherent counters, and ordered
// percentiles. TestBenchClusterJSONParses runs it against the committed
// file.
func (b *ClusterBaseline) Validate() error {
	if b.Suite != "marketbench" {
		return fmt.Errorf("suite %q, want marketbench", b.Suite)
	}
	if b.GOOS == "" || b.GOARCH == "" || b.GoVersion == "" {
		return fmt.Errorf("missing platform metadata: goos=%q goarch=%q go_version=%q", b.GOOS, b.GOARCH, b.GoVersion)
	}
	if b.NumCPU < 1 || b.GOMAXPROCS < 1 {
		return fmt.Errorf("implausible machine: num_cpu=%d gomaxprocs=%d", b.NumCPU, b.GOMAXPROCS)
	}
	if !strings.Contains(b.Procedure, "scripts/bench.sh") {
		return fmt.Errorf("procedure does not document re-recording via scripts/bench.sh: %q", b.Procedure)
	}
	if len(b.Topologies) == 0 {
		return fmt.Errorf("no topologies recorded")
	}
	for _, t := range b.Topologies {
		if t.Name == "" {
			return fmt.Errorf("topology with empty name")
		}
		if t.Aggregate.Requests <= 0 {
			return fmt.Errorf("topology %q: no measured requests", t.Name)
		}
		if t.ThroughputRPS <= 0 {
			return fmt.Errorf("topology %q: throughput_rps = %v, want > 0", t.Name, t.ThroughputRPS)
		}
		if len(t.Endpoints) == 0 {
			return fmt.Errorf("topology %q: no per-endpoint rows", t.Name)
		}
		for _, n := range t.Nodes {
			if n.Node == "" || n.Requests <= 0 {
				return fmt.Errorf("topology %q: node report %+v without a node name or served requests", t.Name, n)
			}
			if n.AllocBytesPerRequest < 0 || n.MallocsPerRequest < 0 {
				return fmt.Errorf("topology %q node %q: negative allocation accounting", t.Name, n.Node)
			}
		}
		rows := append([]EndpointReport{t.Aggregate}, t.Endpoints...)
		for _, e := range rows {
			if e.Requests < 0 {
				return fmt.Errorf("topology %q endpoint %q: negative requests", t.Name, e.Name)
			}
			if e.Requests == 0 {
				continue // a low-weight endpoint can miss a short run
			}
			if e.P50MS <= 0 || e.P50MS > e.P95MS || e.P95MS > e.P99MS || e.P99MS > e.MaxMS {
				return fmt.Errorf("topology %q endpoint %q: disordered percentiles p50=%v p95=%v p99=%v max=%v",
					t.Name, e.Name, e.P50MS, e.P95MS, e.P99MS, e.MaxMS)
			}
		}
	}
	return nil
}

// cpuModel returns the CPU model string, best-effort: /proc/cpuinfo on
// Linux, empty elsewhere (the field is omitempty; goarch+num_cpu still
// identify the machine class).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if name, value, ok := strings.Cut(line, ":"); ok {
			if strings.TrimSpace(name) == "model name" {
				return strings.TrimSpace(value)
			}
		}
	}
	return ""
}
