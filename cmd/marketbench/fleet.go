package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"ipv4market/internal/harness"
	"ipv4market/internal/loadgen"
)

// eventTimeout bounds each mid-load milestone: the rebuild swap and the
// followers' catch-up.
const eventTimeout = 120 * time.Second

// nodeVarz is the slice of a marketd /varz document the orchestrator
// polls: snapshot identity, rebuild progress, replication lag.
type nodeVarz struct {
	Snapshot *struct {
		Seq uint64 `json:"seq"`
		Gen uint64 `json:"gen"`
	} `json:"snapshot"`
	Rebuilds *struct {
		Total    int64 `json:"total"`
		Errors   int64 `json:"errors"`
		InFlight bool  `json:"in_flight"`
	} `json:"rebuilds"`
	Replication *struct {
		AppliedGen     uint64 `json:"applied_gen"`
		LagGenerations int    `json:"lag_generations"`
	} `json:"replication"`
}

// fetchNodeVarz GETs and decodes one node's /varz.
func fetchNodeVarz(client *http.Client, base string) (*nodeVarz, error) {
	resp, err := client.Get(base + "/varz")
	if err != nil {
		return nil, fmt.Errorf("varz %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("varz %s: status %d", base, resp.StatusCode)
	}
	var v nodeVarz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&v); err != nil {
		return nil, fmt.Errorf("varz %s: decode: %w", base, err)
	}
	return &v, nil
}

// fleet is one booted topology: a leader, its followers, and (when
// followers exist) a router in front.
type fleet struct {
	leader    *harness.Daemon
	followers []*harness.Daemon
	base      string // what the load is driven at
	router    *loadgen.Router

	routerSrv    *http.Server
	routerDone   chan error
	healthCancel context.CancelFunc
}

// nodes returns name→base for every marketd in the fleet.
func (fl *fleet) nodes() map[string]string {
	m := map[string]string{"leader": fl.leader.Base}
	for i, d := range fl.followers {
		m[fmt.Sprintf("follower%d", i+1)] = d.Base
	}
	return m
}

// shutdown tears the fleet down: router first (stop new traffic), then
// every marketd at once. The first error wins; teardown continues
// regardless so no process outlives the bench.
func (fl *fleet) shutdown() error {
	var firstErr error
	if fl.healthCancel != nil {
		fl.healthCancel()
	}
	if fl.routerSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := fl.routerSrv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("router shutdown: %w", err)
		}
		cancel()
		if err := <-fl.routerDone; err != nil && err != http.ErrServerClosed && firstErr == nil {
			firstErr = fmt.Errorf("router serve: %w", err)
		}
	}
	if err := harness.Stop(append([]*harness.Daemon{fl.leader}, fl.followers...)...); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// bootFleet starts a leader with a durable store and admin rebuilds,
// `followers` marketd followers replicating from it (readiness gated by
// -max-lag), and — when there are followers — a round-robin router
// whose health loop polls every node's /readyz.
func bootFleet(w io.Writer, f *benchFlags, followers int, workdir string) (*fleet, error) {
	world := []string{"-lirs", strconv.Itoa(f.lirs), "-days", strconv.Itoa(f.days)}
	if f.worldSeed != 0 {
		world = append(world, "-seed", strconv.FormatInt(f.worldSeed, 10))
	}

	leader, err := harness.Start(w, "leader", f.marketdBin, append([]string{
		"-listen", "127.0.0.1:0", "-data-dir", filepath.Join(workdir, "leader"), "-admin"}, world...)...)
	if err != nil {
		return nil, err
	}
	fl := &fleet{leader: leader, base: leader.Base}

	for i := 0; i < followers; i++ {
		name := fmt.Sprintf("follower%d", i+1)
		args := append([]string{
			"-listen", "127.0.0.1:0",
			"-data-dir", filepath.Join(workdir, name),
			"-follow", leader.Base,
			"-poll-interval", f.pollEvery.String()}, world...)
		if f.maxLag != "" {
			args = append(args, "-max-lag", f.maxLag)
		}
		d, err := harness.Start(w, name, f.marketdBin, args...)
		if err != nil {
			fl.shutdown()
			return nil, err
		}
		fl.followers = append(fl.followers, d)
	}

	if followers == 0 {
		return fl, nil
	}

	targets := []string{leader.Base}
	names := map[string]string{leader.Base: "leader"}
	for i, d := range fl.followers {
		targets = append(targets, d.Base)
		names[d.Base] = fmt.Sprintf("follower%d", i+1)
	}
	rt, err := loadgen.NewNamedRouter(targets, names)
	if err != nil {
		fl.shutdown()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.shutdown()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	healthCtx, cancel := context.WithCancel(context.Background())
	go rt.HealthLoop(healthCtx, f.pollEvery) // coordinated: exits when healthCancel fires in shutdown
	fl.router = rt
	fl.routerSrv = &http.Server{Handler: rt}
	fl.routerDone = make(chan error, 1)
	fl.healthCancel = cancel
	srv, done := fl.routerSrv, fl.routerDone
	go func() { done <- srv.Serve(ln) }() // coordinated: result received in shutdown
	fl.base = "http://" + ln.Addr().String()
	fmt.Fprintf(w, "marketbench: router on %s over %d backends\n", fl.base, len(targets))

	// One synchronous health pass so the first measured request never
	// races the loop's first tick.
	rt.CheckHealth(healthCtx)
	return fl, nil
}

// runTopology boots one topology, drives the configured load at it,
// triggers a leader rebuild mid-run, waits for the swap and (with
// followers) for every follower to catch back up, cross-checks the
// client percentiles against each node's /varz buckets, and renders the
// report row.
func runTopology(ctx context.Context, w io.Writer, f *benchFlags, followers int) (*loadgen.TopologyReport, error) {
	name := "leader"
	if followers > 0 {
		name = fmt.Sprintf("leader+%d", followers)
	}
	fmt.Fprintf(w, "marketbench: === topology %s (%d follower(s)) ===\n", name, followers)

	workdir, err := os.MkdirTemp("", "marketbench-"+name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	fl, err := bootFleet(w, f, followers, workdir)
	if err != nil {
		return nil, err
	}
	defer fl.shutdown()

	spec := loadgen.Spec{
		BaseURL:        fl.base,
		Mix:            loadgen.DefaultMix(),
		Seed:           f.seed,
		Mode:           f.mode,
		Concurrency:    f.concurrency,
		RatePerSec:     f.rate,
		WarmupRequests: f.warmup,
		Requests:       f.requests,
		Duration:       f.duration,
	}
	runner, err := loadgen.NewRunner(spec)
	if err != nil {
		return nil, err
	}

	// Baseline scrape for per-node allocation accounting: the /varz
	// process counters are cumulative, so the report needs the values
	// from before any load hit the fleet.
	beforeVarz, err := scrapeFleetVarz(fl)
	if err != nil {
		return nil, fmt.Errorf("pre-load varz scrape: %w", err)
	}

	t0 := time.Now()
	type runOutcome struct {
		res *loadgen.Result
		err error
	}
	loadDone := make(chan runOutcome, 1)
	go func() { // coordinated: outcome received below
		res, err := runner.Run(ctx)
		loadDone <- runOutcome{res, err}
	}()

	events, eventErr := exerciseFleet(w, fl, runner, t0, f)

	outcome := <-loadDone
	if outcome.err != nil {
		return nil, fmt.Errorf("load run: %w", outcome.err)
	}
	if eventErr != nil {
		return nil, eventErr
	}
	res := outcome.res
	printResult(w, res, f.budget)

	report := loadgen.NewTopologyReport(name, followers, followers > 0, f.budget, res)
	report.World = loadgen.WorldParams{Seed: f.worldSeed, LIRs: f.lirs, Days: f.days}
	if f.mode == loadgen.OpenLoop {
		report.Load.RatePerSec = f.rate
	}
	report.Events = events

	server, err := crossCheck(w, fl, res)
	if err != nil {
		return nil, err
	}
	report.Server = server

	afterVarz, err := scrapeFleetVarz(fl)
	if err != nil {
		return nil, fmt.Errorf("post-load varz scrape: %w", err)
	}
	for _, nodeName := range sortedKeys(fl.nodes()) {
		if nr, ok := loadgen.NewNodeReport(nodeName, beforeVarz[nodeName], afterVarz[nodeName]); ok {
			report.Nodes = append(report.Nodes, nr)
			fmt.Fprintf(w, "marketbench: %s: %.0f alloc bytes/request, %.1f mallocs/request over %d requests (zero-copy file reads %d, fallbacks %d)\n",
				nodeName, nr.AllocBytesPerRequest, nr.MallocsPerRequest, nr.Requests, nr.ZeroCopyFileReads, nr.ZeroCopyFallbacks)
		}
	}
	return &report, nil
}

// scrapeFleetVarz captures every node's /varz document, keyed by node
// name.
func scrapeFleetVarz(fl *fleet) (map[string]*loadgen.ServerVarz, error) {
	out := make(map[string]*loadgen.ServerVarz, len(fl.nodes()))
	for nodeName, base := range fl.nodes() {
		sv, err := loadgen.ScrapeVarz(context.Background(), nil, base)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", nodeName, err)
		}
		out[nodeName] = sv
	}
	return out, nil
}

// exerciseFleet runs the mid-load milestones: once measurement is under
// way it triggers a rebuild on the leader, waits for the new snapshot
// to swap in, and — when followers exist — waits for every follower to
// re-adopt the leader's newest generation. Offsets are relative to t0.
func exerciseFleet(w io.Writer, fl *fleet, runner *loadgen.Runner, t0 time.Time, f *benchFlags) ([]loadgen.EventReport, error) {
	client := &http.Client{Timeout: 10 * time.Second}

	// Wait for measurement to actually be in flight so the rebuild runs
	// under load, not beside it.
	deadline := time.Now().Add(eventTimeout)
	for runner.Issued() <= int64(f.warmup) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("load never reached the measured phase")
		}
		time.Sleep(5 * time.Millisecond)
	}

	before, err := fetchNodeVarz(client, fl.leader.Base)
	if err != nil {
		return nil, err
	}
	if before.Snapshot == nil || before.Rebuilds == nil {
		return nil, fmt.Errorf("leader /varz lacks snapshot/rebuilds sections")
	}

	resp, err := client.Post(fl.leader.Base+"/admin/rebuild", "", nil)
	if err != nil {
		return nil, fmt.Errorf("trigger rebuild: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("trigger rebuild: status %d, want 202", resp.StatusCode)
	}
	events := []loadgen.EventReport{{
		Name:      "rebuild_triggered",
		AtSeconds: time.Since(t0).Seconds(),
		Detail:    fmt.Sprintf("POST /admin/rebuild with %d requests issued", runner.Issued()),
	}}
	fmt.Fprintf(w, "marketbench: rebuild triggered at +%.2fs\n", events[0].AtSeconds)

	// The swap is visible as a sequence bump with no rebuild in flight.
	swapDeadline := time.Now().Add(eventTimeout)
	var after *nodeVarz
	for {
		after, err = fetchNodeVarz(client, fl.leader.Base)
		if err != nil {
			return nil, err
		}
		if after.Snapshot != nil && after.Rebuilds != nil &&
			after.Snapshot.Seq > before.Snapshot.Seq && !after.Rebuilds.InFlight {
			break
		}
		if after.Rebuilds != nil && after.Rebuilds.Errors > before.Rebuilds.Errors {
			return nil, fmt.Errorf("rebuild under load failed on the leader")
		}
		if time.Now().After(swapDeadline) {
			return nil, fmt.Errorf("leader did not swap a rebuilt snapshot within %v", eventTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
	events = append(events, loadgen.EventReport{
		Name:      "leader_swapped",
		AtSeconds: time.Since(t0).Seconds(),
		Detail: fmt.Sprintf("seq %d -> %d, gen %d", before.Snapshot.Seq,
			after.Snapshot.Seq, after.Snapshot.Gen),
	})
	fmt.Fprintf(w, "marketbench: leader swapped generation %d at +%.2fs\n",
		after.Snapshot.Gen, events[1].AtSeconds)

	if len(fl.followers) == 0 {
		return events, nil
	}

	// Followers must re-adopt the new generation while traffic flows;
	// their -max-lag gate keeps the router away from them in between.
	catchDeadline := time.Now().Add(eventTimeout)
	for _, d := range fl.followers {
		for {
			fv, err := fetchNodeVarz(client, d.Base)
			if err != nil {
				return nil, err
			}
			if fv.Replication != nil && fv.Replication.AppliedGen >= after.Snapshot.Gen {
				break
			}
			if time.Now().After(catchDeadline) {
				return nil, fmt.Errorf("%s did not adopt generation %d within %v", d.Name, after.Snapshot.Gen, eventTimeout)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	events = append(events, loadgen.EventReport{
		Name:      "followers_caught_up",
		AtSeconds: time.Since(t0).Seconds(),
		Detail:    fmt.Sprintf("%d follower(s) adopted generation %d", len(fl.followers), after.Snapshot.Gen),
	})
	fmt.Fprintf(w, "marketbench: followers caught up to generation %d at +%.2fs\n",
		after.Snapshot.Gen, events[2].AtSeconds)
	return events, nil
}

// crossCheck scrapes every node's /varz and recomputes server-side
// percentiles from the exported latency buckets for each route the
// load actually drove.
func crossCheck(w io.Writer, fl *fleet, res *loadgen.Result) ([]loadgen.ServerRouteReport, error) {
	driven := make(map[string]bool)
	for _, es := range res.Endpoints {
		if es.Requests > 0 && es.Route != "" {
			driven[es.Route] = true
		}
	}

	var rows []loadgen.ServerRouteReport
	for _, nodeName := range sortedKeys(fl.nodes()) {
		base := fl.nodes()[nodeName]
		sv, err := loadgen.ScrapeVarz(context.Background(), nil, base)
		if err != nil {
			return nil, fmt.Errorf("cross-check: %w", err)
		}
		for _, route := range sv.RouteNames() {
			if !driven[route] {
				continue
			}
			rv := sv.Routes[route]
			p50, ok := sv.RouteQuantile(route, 0.50)
			if !ok {
				continue
			}
			p95, _ := sv.RouteQuantile(route, 0.95)
			p99, _ := sv.RouteQuantile(route, 0.99)
			rows = append(rows, loadgen.ServerRouteReport{
				Node:     nodeName,
				Route:    route,
				Requests: rv.Requests,
				P50MS:    p50,
				P95MS:    p95,
				P99MS:    p99,
			})
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("cross-check: no /varz latency buckets matched the driven routes")
	}
	fmt.Fprintf(w, "marketbench: server-side cross-check: %d node-route rows\n", len(rows))
	return rows, nil
}

// sortedKeys returns m's keys in sorted order (stable report rows).
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
