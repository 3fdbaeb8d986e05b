package main

import (
	"context"
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

const (
	// followers is the fleet's follower count behind the router.
	followers = 2
	// topology names the fleet in reports.
	topology = "leader+2"
	// loadSeed fixes the request mix.
	loadSeed = 1
	// pollInterval is the followers' leader-poll period and the
	// router's health-check period.
	pollInterval = 250 * time.Millisecond
	// maxLag is the followers' -max-lag readiness bound in generations.
	maxLag = "2"
	// eventTimeout bounds each mid-load milestone: the rebuild swap and
	// the followers' catch-up.
	eventTimeout = 120 * time.Second
)

// fleet is the booted topology: a leader, its followers, and the
// router in front of them.
type fleet struct {
	leader    *harness.Daemon
	followers []*harness.Daemon
	router    *loadgen.Router
	base      string // the router's URL, where the load is driven

	routerSrv    *http.Server
	routerDone   chan error
	healthCancel context.CancelFunc
}

// nodes returns name→base for every marketd in the fleet.
func (fl *fleet) nodes() map[string]string {
	m := map[string]string{"leader": fl.leader.Base}
	for _, d := range fl.followers {
		m[d.Name] = d.Base
	}
	return m
}

// shutdown tears the fleet down: router first (stop new traffic), then
// the router's idle backend connections, then every marketd at once.
// The first error wins; teardown continues regardless so no process
// outlives the bench.
func (fl *fleet) shutdown() error {
	var firstErr error
	if fl.healthCancel != nil {
		fl.healthCancel()
	}
	if fl.routerSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := fl.routerSrv.Shutdown(ctx); err != nil {
			firstErr = fmt.Errorf("router shutdown: %w", err)
		}
		cancel()
		if err := <-fl.routerDone; err != nil && err != http.ErrServerClosed && firstErr == nil {
			firstErr = fmt.Errorf("router serve: %w", err)
		}
	}
	if fl.router != nil {
		fl.router.CloseIdleConnections()
	}
	if err := harness.Stop(append([]*harness.Daemon{fl.leader}, fl.followers...)...); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// bootFleet starts a leader with a durable store and admin rebuilds,
// the followers replicating from it (readiness gated by -max-lag), and
// a round-robin router whose health loop polls every node's /readyz.
func bootFleet(w io.Writer, f *benchFlags, workdir string) (*fleet, error) {
	world := []string{
		"-seed", strconv.FormatInt(f.world.Seed, 10),
		"-lirs", strconv.Itoa(f.world.NumLIRs),
		"-days", strconv.Itoa(f.world.RoutingDays),
	}
	leader, err := harness.Start(w, "leader", f.marketdBin, append([]string{
		"-listen", "127.0.0.1:0", "-data-dir", filepath.Join(workdir, "leader"), "-admin"}, world...)...)
	if err != nil {
		return nil, err
	}
	fl := &fleet{leader: leader}
	targets := []string{leader.Base}
	names := map[string]string{leader.Base: "leader"}

	for i := 1; i <= followers; i++ {
		name := fmt.Sprintf("follower%d", i)
		d, err := harness.Start(w, name, f.marketdBin, append([]string{
			"-listen", "127.0.0.1:0",
			"-data-dir", filepath.Join(workdir, name),
			"-follow", leader.Base,
			"-poll-interval", pollInterval.String(),
			"-max-lag", maxLag}, world...)...)
		if err != nil {
			fl.shutdown()
			return nil, err
		}
		fl.followers = append(fl.followers, d)
		targets = append(targets, d.Base)
		names[d.Base] = name
	}

	rt, err := loadgen.NewNamedRouter(targets, names)
	if err != nil {
		fl.shutdown()
		return nil, err
	}
	fl.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fl.shutdown()
		return nil, fmt.Errorf("router listen: %w", err)
	}
	healthCtx, cancel := context.WithCancel(context.Background())
	go rt.HealthLoop(healthCtx, pollInterval) // coordinated: exits when healthCancel fires in shutdown
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

// runFleet boots the fleet, drives the load through its router,
// triggers a leader rebuild mid-run, waits for the swap and for every
// follower to catch back up, cross-checks the client percentiles
// against each node's /varz buckets, and renders the report row. The
// fleet's teardown error is the run's error when nothing failed before
// it.
func runFleet(ctx context.Context, w io.Writer, f *benchFlags) (report *loadgen.TopologyReport, err error) {
	fmt.Fprintf(w, "marketbench: === %s: world seed %d, %d LIRs, %d days ===\n",
		topology, f.world.Seed, f.world.NumLIRs, f.world.RoutingDays)

	workdir, err := os.MkdirTemp("", "marketbench-fleet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	fl, err := bootFleet(w, f, workdir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if stopErr := fl.shutdown(); stopErr != nil && err == nil {
			report, err = nil, fmt.Errorf("teardown: %w", stopErr)
		}
	}()

	runner, err := loadgen.NewRunner(loadgen.Spec{
		BaseURL:        fl.base,
		Mix:            loadgen.DefaultMix(),
		Seed:           loadSeed,
		Concurrency:    f.concurrency,
		WarmupRequests: f.warmup,
		Requests:       f.requests,
	})
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

	events, eventErr := exerciseFleet(ctx, w, fl, runner, t0, f.warmup)

	outcome := <-loadDone
	if outcome.err != nil {
		return nil, fmt.Errorf("load run: %w", outcome.err)
	}
	if eventErr != nil {
		return nil, eventErr
	}
	res := outcome.res
	printResult(w, res, f.budget)
	for _, b := range fl.router.Backends() {
		fmt.Fprintf(w, "marketbench: router forwarded %d requests to %s\n", b.Forwarded(), b.Name())
	}

	r := loadgen.NewTopologyReport(topology, followers, f.budget, res)
	r.World = loadgen.WorldParams{Seed: f.world.Seed, LIRs: f.world.NumLIRs, Days: f.world.RoutingDays}
	r.Events = events

	afterVarz, err := scrapeFleetVarz(fl)
	if err != nil {
		return nil, fmt.Errorf("post-load varz scrape: %w", err)
	}
	if r.Server, err = crossCheck(w, afterVarz, res); err != nil {
		return nil, err
	}
	for _, nodeName := range sortedKeys(fl.nodes()) {
		if nr, ok := loadgen.NewNodeReport(nodeName, beforeVarz[nodeName], afterVarz[nodeName]); ok {
			r.Nodes = append(r.Nodes, nr)
			fmt.Fprintf(w, "marketbench: %s: %.0f alloc bytes/request, %.1f mallocs/request over %d requests (zero-copy file reads %d, fallbacks %d)\n",
				nodeName, nr.AllocBytesPerRequest, nr.MallocsPerRequest, nr.Requests, nr.ZeroCopyFileReads, nr.ZeroCopyFallbacks)
		}
	}
	return &r, nil
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
// to swap in, and waits for every follower to re-adopt the leader's
// newest generation. Offsets are relative to t0.
func exerciseFleet(ctx context.Context, w io.Writer, fl *fleet, runner *loadgen.Runner, t0 time.Time, warmup int) ([]loadgen.EventReport, error) {
	client := &http.Client{Timeout: 10 * time.Second}

	// Wait for measurement to actually be in flight so the rebuild runs
	// under load, not beside it.
	deadline := time.Now().Add(eventTimeout)
	for runner.Issued() <= int64(warmup) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("load never reached the measured phase")
		}
		time.Sleep(5 * time.Millisecond)
	}

	before, err := loadgen.ScrapeVarz(ctx, client, fl.leader.Base)
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
	var after *loadgen.ServerVarz
	for {
		after, err = loadgen.ScrapeVarz(ctx, client, fl.leader.Base)
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

	// Followers must re-adopt the new generation while traffic flows;
	// their -max-lag gate keeps the router away from them in between.
	catchDeadline := time.Now().Add(eventTimeout)
	for _, d := range fl.followers {
		for {
			fv, err := loadgen.ScrapeVarz(ctx, client, d.Base)
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

// crossCheck recomputes server-side percentiles from every node's
// post-load /varz scrape (keyed by node name) for each route the load
// actually drove.
func crossCheck(w io.Writer, scrapes map[string]*loadgen.ServerVarz, res *loadgen.Result) ([]loadgen.ServerRouteReport, error) {
	driven := make(map[string]bool)
	for _, es := range res.Endpoints {
		if es.Requests > 0 && es.Route != "" {
			driven[es.Route] = true
		}
	}

	var rows []loadgen.ServerRouteReport
	for _, nodeName := range sortedKeys(scrapes) {
		sv := scrapes[nodeName]
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
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
