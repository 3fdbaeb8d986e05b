// Command marketd serves the full study — tables, figures, price cells,
// transfer statistics, delegation lookups, leasing summaries — as an
// HTTP API backed by immutable precomputed snapshots.
//
//	marketd -listen 127.0.0.1:8090 -seed 42
//
// The study runs exactly once at startup (and again on SIGHUP or
// POST /admin/rebuild when -admin is set); every request after that is
// served from the pre-encoded snapshot, so query latency is independent
// of simulation cost. Independent snapshot artifacts build concurrently;
// -buildworkers caps the fan-out and any value yields a byte-identical
// snapshot. At 0 the boot build uses NumCPU workers and a background
// rebuild NumCPU-1 (at least 1), leaving a core to the requests served
// meanwhile. See internal/serve and ARCHITECTURE.md for the pipeline.
//
//	GET /v1/table1            exhaustion timeline        (JSON, CSV)
//	GET /v1/figures/{1..4}    the paper's figures        (JSON, CSV)
//	GET /v1/prices            price cells, filterable    (JSON, CSV)
//	GET /v1/transfers         transfer log + stats       (JSON)
//	GET /v1/delegations       lease index, ?prefix=CIDR  (JSON)
//	GET /v1/leasing           leasing market summary     (JSON)
//	GET /v1/headline          §3 headline statistics     (JSON)
//	GET /v1/asof              point-in-time state, ?date=&prefix=  (JSON)
//	GET /v1/asof/timeline     one prefix's full history, ?prefix=  (JSON)
//	GET /v1/asof/diff         events between dates, ?from=&to=     (JSON)
//	GET /v1/history           persisted generations      (JSON, needs -data-dir)
//	GET /healthz /readyz /varz
//
// With -data-dir the server is durable: every successful build is
// appended to an on-disk snapshot store (internal/store), a restart
// warm-starts from the newest intact generation (serving immediately,
// with a fresh build in the background), -store-keep bounds retention,
// and ?gen=N on the artifact endpoints pins a read to a stored
// generation with its original bytes and ETag.
//
// With -data-dir the server is also a replication leader: it exposes
// GET /v1/replication/generations (the sealed-segment catalog) and
// GET /v1/replication/segment/{gen} (raw segment bytes with ETag and
// Range support). A second marketd started with -follow <leader-url>
// runs as a follower: it never builds locally, pulls the leader's
// segments into its own -data-dir (verified, atomic, quarantining
// corrupt downloads), and serves byte- and ETag-identical responses.
// Followers poll every -poll-interval, back off with jitter when the
// leader is unreachable, keep serving their last good generation in the
// meantime, and answer 409 on POST /admin/rebuild. See internal/replicate.
// A follower's -max-lag gates its /readyz on replication lag — an
// integer bounds generations behind the leader, a duration bounds time
// since the last successful sync — so a router polling /readyz drains
// stale followers while they keep serving direct clients.
//
// With -scenarios dir/ the server hosts a whole scenario matrix: every
// *.json spec in the directory (name, seed, scale, adversarial knobs —
// price shocks, RPKI churn storms, hijack waves, a utilization profile)
// becomes an isolated world served under /v1/{scenario}/... with the
// full artifact and asof surface; bare /v1/... paths alias the default
// scenario so single-scenario clients keep working. Each scenario
// persists under -data-dir/{scenario} with its own generation ratchet,
// and followers mirror every scenario's segment stream. GET
// /v1/scenarios lists the matrix; -seed conflicts with -scenarios
// (seeds come from the specs). See internal/scenario and docs/API.md.
//
// -selfcheck boots the server on a loopback port, queries the key
// endpoints through a real HTTP client, and exits; scripts/check.sh uses
// it as the smoke test. With -data-dir it additionally proves the
// restart path: it shuts the first server down, re-verifies every
// on-disk segment checksum, warm-starts a second server over the same
// directory, and asserts body and ETag continuity. With -scenarios it
// walks the matrix instead: every scenario's surface, the default
// alias, cross-scenario isolation, and per-scenario gen pinning.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"ipv4market/internal/replicate"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "marketd:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("marketd", flag.ContinueOnError)
	var (
		listen    = fs.String("listen", "127.0.0.1:8090", "listen address")
		seed      = fs.Int64("seed", 0, "simulation seed (overrides config default when nonzero)")
		lirs      = fs.Int("lirs", 0, "number of LIR organizations (0: config default)")
		days      = fs.Int("days", 0, "routing window length in days (0: config default)")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request handler timeout")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		admin     = fs.Bool("admin", false, "expose POST /admin/rebuild")
		selfcheck = fs.Bool("selfcheck", false, "boot on a loopback port, smoke-query the API, exit")
		workers   = fs.Int("buildworkers", 0, "snapshot build-stage worker count (0: NumCPU at boot, NumCPU-1 for background rebuilds); output is identical at any count")
		dataDir   = fs.String("data-dir", "", "durable snapshot store directory (empty: in-memory only)")
		storeKeep = fs.Int("store-keep", 5, "generations to retain in the store after each persist (< 1: keep all)")
		scenDir   = fs.String("scenarios", "", "scenario config directory: serve a multi-scenario matrix from its *.json specs (see docs/API.md)")
		follow    = fs.String("follow", "", "run as replication follower of this leader base URL (requires -data-dir)")
		pollEvery = fs.Duration("poll-interval", 5*time.Second, "follower: steady-state leader poll period")
		maxLag    = fs.String("max-lag", "", "follower: /readyz answers 503 beyond this lag — an integer bounds generations behind the leader, a duration (e.g. 30s) bounds time since the last successful sync")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := simulation.DefaultConfig()
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *lirs > 0 {
		cfg.NumLIRs = *lirs
	}
	if *days > 0 {
		cfg.RoutingDays = *days
	}

	follower := *follow != ""
	if follower && *dataDir == "" {
		return fmt.Errorf("marketd: -follow requires -data-dir (the follower's local segment store)")
	}
	maxLagGens, maxLagAge, err := parseMaxLag(*maxLag)
	if err != nil {
		return err
	}
	if *maxLag != "" && !follower {
		return fmt.Errorf("marketd: -max-lag only applies to followers (set -follow)")
	}
	if follower && *selfcheck {
		return fmt.Errorf("marketd: -selfcheck and -follow are mutually exclusive (selfcheck the leader instead)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *scenDir != "" {
		if *seed != 0 {
			return fmt.Errorf("marketd: -seed conflicts with -scenarios (each scenario spec carries its own seed)")
		}
		return runScenarios(ctx, w, scenarioSettings{
			dir:       *scenDir,
			listen:    *listen,
			dataDir:   *dataDir,
			follow:    *follow,
			baseCfg:   cfg,
			timeout:   *timeout,
			drain:     *drain,
			pollEvery: *pollEvery,
			admin:     *admin,
			selfcheck: *selfcheck,
			workers:   *workers,
			storeKeep: *storeKeep,
			lagGate:   *maxLag != "",
			lagGens:   maxLagGens,
			lagAge:    maxLagAge,
		})
	}

	opts := serve.Options{
		Timeout:      *timeout,
		EnableAdmin:  *admin || *selfcheck,
		BuildWorkers: *workers,
		StoreKeep:    *storeKeep,
		WarmStart:    true,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, format+"\n", args...)
		},
	}
	var st *store.Store
	if *dataDir != "" {
		var err error
		st, err = store.Open(*dataDir)
		if err != nil {
			return fmt.Errorf("marketd: open store: %w", err)
		}
		opts.Store = st
		stats := st.Stats()
		fmt.Fprintf(w, "marketd: store %s: %d generation(s), %d bytes", *dataDir, stats.Segments, stats.Bytes)
		if stats.TruncatedTails > 0 {
			fmt.Fprintf(w, " (%d corrupt segment(s) quarantined)", stats.TruncatedTails)
		}
		fmt.Fprintln(w)
	}

	// Every store-backed marketd is a replication leader (followers can
	// chain from followers); a -follow process is additionally a
	// follower, and its /varz replication section reports that role.
	var leader *replicate.Leader
	if st != nil {
		leader = replicate.NewLeader(st)
		opts.ReplicationVarz = leader.Varz
	}
	var repl *replicate.Replicator
	if follower {
		var err error
		repl, err = replicate.New(replicate.Options{
			LeaderURL: *follow,
			Store:     st,
			Interval:  *pollEvery,
			Keep:      *storeKeep,
			Logf:      opts.Logf,
		})
		if err != nil {
			return fmt.Errorf("marketd: %w", err)
		}
		opts.Follower = true
		opts.ReplicationVarz = repl.Varz
		if *maxLag != "" {
			opts.ReadyCheck = repl.ReadyCheck(maxLagGens, maxLagAge)
			fmt.Fprintf(w, "marketd: follower: /readyz gated at max lag %s\n", *maxLag)
		}
		// Serving needs at least one generation; sync until we have one
		// (or the process is told to stop). The leader being down — or
		// up but empty — at follower boot is expected; keep trying.
		for {
			if _, ok := st.Latest(); ok {
				break
			}
			fmt.Fprintf(w, "marketd: follower: syncing initial generation from %s...\n", *follow)
			if err := repl.SyncOnce(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(w, "marketd: follower: initial sync failed (will retry in %s): %v\n", *pollEvery, err)
			}
			if _, ok := st.Latest(); ok {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("marketd: follower: interrupted before first sync")
			case <-time.After(*pollEvery):
			}
		}
	}

	build := time.Now()
	if !follower {
		fmt.Fprintf(w, "marketd: building snapshot (seed=%d lirs=%d days=%d)...\n", cfg.Seed, cfg.NumLIRs, cfg.RoutingDays)
	}
	srv, err := serve.New(cfg, opts)
	if err != nil {
		return err
	}
	snap := srv.Snapshot()
	switch {
	case follower:
		fmt.Fprintf(w, "marketd: follower of %s: serving generation %d (seed=%d, built %s)\n",
			*follow, snap.Gen, snap.Cfg.Seed, snap.BuiltAt.UTC().Format(time.RFC3339))
	case srv.WarmStarted():
		fmt.Fprintf(w, "marketd: warm start: restored generation %d (seed=%d, built %s) in %v; serving now\n",
			snap.Gen, snap.Cfg.Seed, snap.BuiltAt.UTC().Format(time.RFC3339), time.Since(build).Round(time.Millisecond))
	default:
		fmt.Fprintf(w, "marketd: snapshot ready in %v (%d workers): %d transfers, %d price cells, %d delegations\n",
			time.Since(build).Round(time.Millisecond), snap.Workers, snap.TransferTotal(), len(snap.PriceCells), snap.Delegations.Len())
	}

	if leader != nil {
		srv.Mount(replicate.PatternGenerations, leader.Generations(), *timeout)
		// Segment bodies can be large; 0 disables the timeout middleware
		// so a slow follower's download is never cut mid-stream.
		srv.Mount(replicate.PatternSegment, leader.Segment(), 0)
	}

	if *selfcheck {
		return runSelfcheck(w, srv, *drain, *dataDir, cfg, opts)
	}

	if follower {
		// From here on every new generation the replicator installs is
		// hot-swapped into the serving layer. The loop's first pass may
		// re-adopt the generation serve.New just restored; the swap is
		// idempotent.
		repl.SetApply(func(m store.Meta) error { return srv.AdoptGeneration(m.Gen) })
	} else if srv.WarmStarted() && srv.RebuildAsync(cfg) {
		// A warm-started leader is serving yesterday's data by design;
		// kick off a fresh build in the background so it converges on a
		// current snapshot without delaying the first request.
		fmt.Fprintln(w, "marketd: fresh rebuild started in background")
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("marketd: listen: %w", err)
	}
	fmt.Fprintf(w, "marketd: serving on http://%s\n", ln.Addr())

	if follower {
		go repl.Run(ctx)
	} else {
		// SIGHUP rebuilds are a leader affordance; a follower's snapshots
		// only ever come from its leader.
		watchHUP(ctx, w, srv, cfg)
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	if err := serve.Serve(ctx, httpSrv, ln, *drain); err != nil {
		return err
	}
	srv.Wait() // let an in-flight SIGHUP rebuild finish before exiting
	fmt.Fprintln(w, "marketd: shut down cleanly")
	return nil
}

// parseMaxLag interprets the -max-lag value: empty means no gate, a
// bare integer bounds generations behind the leader, and anything
// time.ParseDuration accepts bounds staleness of the last successful
// sync. The unused dimension is disabled (-1 generations / 0 age).
func parseMaxLag(s string) (maxGens int, maxAge time.Duration, err error) {
	if s == "" {
		return -1, 0, nil
	}
	if n, convErr := strconv.Atoi(s); convErr == nil {
		if n < 0 {
			return 0, 0, fmt.Errorf("marketd: -max-lag %q: generation bound must be >= 0", s)
		}
		return n, 0, nil
	}
	d, parseErr := time.ParseDuration(s)
	if parseErr != nil {
		return 0, 0, fmt.Errorf("marketd: -max-lag %q: want a generation count (e.g. 2) or a duration (e.g. 30s)", s)
	}
	if d <= 0 {
		return 0, 0, fmt.Errorf("marketd: -max-lag %q: duration bound must be positive", s)
	}
	return -1, d, nil
}

// watchHUP triggers a same-config rebuild on each SIGHUP until ctx ends.
// Readers keep the old snapshot until the new one swaps in.
func watchHUP(ctx context.Context, w io.Writer, srv *serve.Server, cfg simulation.Config) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() { // coordinated: exits when ctx is done, signal handler released
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if srv.RebuildAsync(cfg) {
					fmt.Fprintln(w, "marketd: SIGHUP: rebuild started")
				} else {
					fmt.Fprintln(w, "marketd: SIGHUP: rebuild already in flight")
				}
			}
		}
	}()
}

// selfcheckPaths are the endpoints the -selfcheck smoke test must serve
// with 200 OK.
var selfcheckPaths = []string{
	"/healthz",
	"/readyz",
	"/varz",
	"/v1/table1",
	"/v1/table1?format=csv",
	"/v1/figures/1",
	"/v1/figures/2",
	"/v1/figures/3",
	"/v1/figures/4",
	"/v1/prices",
	"/v1/prices?size=/16",
	"/v1/transfers",
	"/v1/delegations",
	"/v1/leasing",
	"/v1/headline",
	"/v1/utilization",
	"/v1/utilization?format=csv",
	"/v1/rpki",
	"/v1/scenarios",
	"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
	"/v1/asof/timeline?prefix=185.0.0.0/16",
	"/v1/asof/diff?from=2015-01-01&to=2015-12-31",
}

// loopbackServer serves srv on an ephemeral loopback port. The returned
// shutdown function drains the listener and waits for in-flight
// rebuilds; it is safe to call exactly once.
func loopbackServer(srv *serve.Server, drain time.Duration) (base string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("marketd: selfcheck listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	httpSrv := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { // coordinated: result drained in shutdown after cancel
		done <- serve.Serve(ctx, httpSrv, ln, drain)
	}()
	shutdown = func() error {
		cancel()
		err := <-done
		srv.Wait()
		return err
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// checkGet expects 200 OK for path and logs the result.
func checkGet(w io.Writer, client *http.Client, base, path string) ([]byte, string, error) {
	resp, err := client.Get(base + path)
	if err != nil {
		return nil, "", fmt.Errorf("marketd: selfcheck %s: %w", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, "", fmt.Errorf("marketd: selfcheck %s: read: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("marketd: selfcheck %s: status %d", path, resp.StatusCode)
	}
	fmt.Fprintf(w, "marketd: selfcheck %-28s %d (%d bytes)\n", path, resp.StatusCode, len(body))
	return body, resp.Header.Get("ETag"), nil
}

// runSelfcheck serves on an ephemeral loopback port, exercises every
// endpoint through a real HTTP client, and reports pass/fail. It is the
// full boot-listen-query-shutdown cycle in one process, so CI needs no
// curl or background job control. With a data directory it then proves
// the durability contract end to end: shut down, warm-start a second
// server over the same directory, and require byte- and ETag-identical
// answers (including 304 on a pre-restart ETag).
func runSelfcheck(w io.Writer, srv *serve.Server, drain time.Duration, dataDir string, cfg simulation.Config, opts serve.Options) error {
	base, shutdown, err := loopbackServer(srv, drain)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: 10 * time.Second}
	paths := selfcheckPaths
	if dataDir != "" {
		gen := srv.Snapshot().Gen
		paths = append(append([]string{}, paths...),
			"/v1/history",
			fmt.Sprintf("/v1/table1?gen=%d", gen),
			fmt.Sprintf("/v1/prices?gen=%d", gen),
		)
	}
	var (
		checkErr   error
		table1Body []byte
		table1ETag string
	)
	for _, path := range paths {
		body, etag, err := checkGet(w, client, base, path)
		if err != nil {
			checkErr = err
			break
		}
		if path == "/v1/table1" {
			table1Body, table1ETag = body, etag
		}
	}

	if err := shutdown(); err != nil && checkErr == nil {
		checkErr = err
	}
	if checkErr != nil || dataDir == "" {
		if checkErr == nil {
			fmt.Fprintf(w, "marketd: selfcheck passed (%d endpoints)\n", len(paths))
		}
		return checkErr
	}

	return selfcheckRestart(w, drain, dataDir, cfg, opts, client, table1Body, table1ETag, len(paths))
}

// selfcheckRestart is the second phase of a durable selfcheck: a fresh
// server over the same data directory must warm-start and answer with
// the bytes and ETags the first server persisted.
func selfcheckRestart(w io.Writer, drain time.Duration, dataDir string, cfg simulation.Config,
	opts serve.Options, client *http.Client, wantBody []byte, wantETag string, phase1 int) error {
	fmt.Fprintln(w, "marketd: selfcheck restart: warm-starting a second server over", dataDir)
	st, err := store.Open(dataDir)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: reopen store: %w", err)
	}

	// Re-checksum every segment on disk (frame CRCs + footer) — the same
	// verification replication followers run on downloads.
	gens := st.Generations()
	for _, g := range gens {
		if err := st.Verify(g.Gen); err != nil {
			return fmt.Errorf("marketd: selfcheck: %w", err)
		}
	}
	fmt.Fprintf(w, "marketd: selfcheck verify: %d segment(s) re-checksummed clean\n", len(gens))

	opts.Store = st
	opts.WarmStart = true
	leader := replicate.NewLeader(st)
	opts.ReplicationVarz = leader.Varz
	srv2, err := serve.New(cfg, opts)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: %w", err)
	}
	if !srv2.WarmStarted() {
		return fmt.Errorf("marketd: selfcheck restart: second server did not warm-start")
	}
	srv2.Mount(replicate.PatternGenerations, leader.Generations(), 0)
	srv2.Mount(replicate.PatternSegment, leader.Segment(), 0)
	base, shutdown, err := loopbackServer(srv2, drain)
	if err != nil {
		return err
	}
	defer shutdown()

	body, etag, err := checkGet(w, client, base, "/v1/table1")
	if err != nil {
		return err
	}
	if !bytes.Equal(body, wantBody) {
		return fmt.Errorf("marketd: selfcheck restart: /v1/table1 body differs from pre-restart bytes")
	}
	if etag != wantETag {
		return fmt.Errorf("marketd: selfcheck restart: /v1/table1 ETag %s, want %s", etag, wantETag)
	}

	req, err := http.NewRequest(http.MethodGet, base+"/v1/table1", nil)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: %w", err)
	}
	req.Header.Set("If-None-Match", wantETag)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: conditional GET: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		return fmt.Errorf("marketd: selfcheck restart: pre-restart ETag answered %d, want 304", resp.StatusCode)
	}
	fmt.Fprintf(w, "marketd: selfcheck %-28s %d (ETag continuity)\n", "/v1/table1 If-None-Match", resp.StatusCode)

	replBody, _, err := checkGet(w, client, base, "/v1/replication/generations")
	if err != nil {
		return err
	}
	var listing struct {
		Generations []struct {
			Gen uint64 `json:"gen"`
		} `json:"generations"`
	}
	if err := json.Unmarshal(replBody, &listing); err != nil {
		return fmt.Errorf("marketd: selfcheck restart: /v1/replication/generations: %w", err)
	}
	if len(listing.Generations) == 0 {
		return fmt.Errorf("marketd: selfcheck restart: replication listing is empty")
	}

	histBody, _, err := checkGet(w, client, base, "/v1/history")
	if err != nil {
		return err
	}
	var hist struct {
		Generations []struct {
			Gen uint64 `json:"gen"`
		} `json:"generations"`
	}
	if err := json.Unmarshal(histBody, &hist); err != nil {
		return fmt.Errorf("marketd: selfcheck restart: /v1/history: %w", err)
	}
	if len(hist.Generations) == 0 {
		return fmt.Errorf("marketd: selfcheck restart: /v1/history lists no generations")
	}

	fmt.Fprintf(w, "marketd: selfcheck passed (%d endpoints + restart continuity)\n", phase1)
	return nil
}
