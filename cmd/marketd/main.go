// Command marketd serves the full study — tables, figures, price cells,
// transfer statistics, delegation lookups, leasing summaries — as an
// HTTP API backed by immutable precomputed snapshots.
//
//	marketd -listen 127.0.0.1:8090 -seed 42
//
// Every marketd serves a scenario matrix (internal/scenario). Without
// -scenarios the matrix holds one implicit world named "default", built
// from -seed/-lirs/-days; with -scenarios dir/ every *.json spec in the
// directory (name, seed, scale, adversarial knobs — price shocks, RPKI
// churn storms, hijack waves, a utilization profile) becomes an isolated
// world served under /v1/{scenario}/... with the full artifact and asof
// surface. Bare /v1/... paths alias the default world either way, and
// GET /v1/scenarios lists the matrix; -seed conflicts with -scenarios
// (seeds come from the specs). See internal/scenario and docs/API.md.
//
// Each world's study runs exactly once at startup (and again on SIGHUP
// or POST /admin/rebuild when -admin is set); every request after that
// is served from the pre-encoded snapshot, so query latency is
// independent of simulation cost. Independent snapshot artifacts build
// concurrently; -buildworkers caps the fan-out and any value yields a
// byte-identical snapshot. At 0 the boot build uses NumCPU workers and
// a background rebuild NumCPU-1 (at least 1), leaving a core to the
// requests served meanwhile. See internal/serve and ARCHITECTURE.md for
// the pipeline.
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
//	GET /v1/scenarios         the served worlds          (JSON)
//	GET /healthz /readyz /varz
//
// With -data-dir the server is durable: every successful build is
// appended to an on-disk snapshot store (internal/store) — the default
// world's at the directory's root, scenario "storm"'s under
// -data-dir/storm — a restart warm-starts each world from its newest
// intact generation (serving immediately, with a fresh build in the
// background), -store-keep bounds retention, and ?gen=N on the artifact
// endpoints pins a read to a stored generation with its original bytes
// and ETag.
//
// With -data-dir the server is also a replication leader: every world
// exposes GET /v1/replication/generations (the sealed-segment catalog)
// and GET /v1/replication/segment/{gen} (raw segment bytes with ETag
// and Range support). A second marketd started with -follow <leader-url>
// and the same worlds runs as a follower: it never builds locally, pulls
// the leader's segments into its own -data-dir (verified, atomic,
// quarantining corrupt downloads), and serves byte- and ETag-identical
// responses. Followers poll every -poll-interval, back off with jitter
// when the leader is unreachable, keep serving their last good
// generation in the meantime, and answer 409 on POST /admin/rebuild.
// See internal/replicate. A follower's -max-lag gates its /readyz on
// replication lag — an integer bounds generations behind the leader, a
// duration bounds time since the last successful sync — so a router
// polling /readyz drains stale followers while they keep serving direct
// clients.
//
// -selfcheck boots the server on a loopback port, walks every world the
// listing names through a real HTTP client — its full surface, the
// default alias, isolation between seeds, and ?gen= pins — and exits;
// scripts/check.sh uses it as the smoke test. With -data-dir it
// additionally proves the restart path: it shuts the first server down,
// warm-starts a second one over the same directory, re-verifies every
// on-disk segment checksum, and asserts body and ETag continuity.
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
	"strings"
	"syscall"
	"time"

	"ipv4market/internal/scenario"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

// main prints run's error as is: every error run returns already
// starts with "marketd: ".
func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// daemon is a parsed command line: the worlds to serve and how.
type daemon struct {
	listen    string
	drain     time.Duration
	selfcheck bool
	specs     []scenario.Spec
	opts      scenario.Options
}

func run(w io.Writer, args []string) error {
	d, err := parseFlags(w, args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg, err := d.open(ctx, w)
	if err != nil {
		return err
	}
	if d.selfcheck {
		return d.check(ctx, w, reg)
	}

	ln, err := net.Listen("tcp", d.listen)
	if err != nil {
		return fmt.Errorf("marketd: listen: %w", err)
	}
	fmt.Fprintf(w, "marketd: serving on http://%s\n", ln.Addr())

	reg.Run(ctx)
	if d.opts.FollowURL == "" {
		// SIGHUP rebuilds are a leader affordance; a follower's snapshots
		// only ever come from its leader.
		rebuildOnHUP(ctx, w, reg)
	}

	httpSrv := &http.Server{Handler: reg}
	if err := serve.Serve(ctx, httpSrv, ln, d.drain); err != nil {
		return fmt.Errorf("marketd: %w", err)
	}
	reg.Wait() // let in-flight rebuilds finish before exiting
	fmt.Fprintln(w, "marketd: shut down cleanly")
	return nil
}

// parseFlags turns the command line into the worlds to serve: the
// -scenarios specs, or one implicit spec built from -seed/-lirs/-days
// and validated like a spec file.
func parseFlags(w io.Writer, args []string) (*daemon, error) {
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
		return nil, fmt.Errorf("marketd: %w", err)
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
		return nil, fmt.Errorf("marketd: -follow requires -data-dir (the follower's local segment store)")
	}
	maxLagGens, maxLagAge, err := parseMaxLag(*maxLag)
	if err != nil {
		return nil, err
	}
	if *maxLag != "" && !follower {
		return nil, fmt.Errorf("marketd: -max-lag only applies to followers (set -follow)")
	}
	if follower && *selfcheck {
		return nil, fmt.Errorf("marketd: -selfcheck and -follow are mutually exclusive (selfcheck the leader instead)")
	}

	implicit, err := scenario.Implicit(cfg)
	if err != nil {
		return nil, fmt.Errorf("marketd: -seed/-lirs/-days: %w", err)
	}
	specs := []scenario.Spec{implicit}
	if *scenDir != "" {
		if *seed != 0 {
			return nil, fmt.Errorf("marketd: -seed conflicts with -scenarios (each scenario spec carries its own seed)")
		}
		if specs, err = scenario.LoadDir(*scenDir); err != nil {
			return nil, fmt.Errorf("marketd: %w", err)
		}
		fmt.Fprintf(w, "marketd: scenario matrix: %d spec(s) from %s, default %q\n",
			len(specs), *scenDir, scenario.DefaultName(specs))
	}
	if *maxLag != "" {
		fmt.Fprintf(w, "marketd: follower: /readyz gated at max lag %s\n", *maxLag)
	}

	return &daemon{
		listen:    *listen,
		drain:     *drain,
		selfcheck: *selfcheck,
		specs:     specs,
		opts: scenario.Options{
			BaseCfg:      cfg,
			DataDir:      *dataDir,
			StoreKeep:    *storeKeep,
			Timeout:      *timeout,
			EnableAdmin:  *admin || *selfcheck,
			BuildWorkers: *workers,
			FollowURL:    *follow,
			PollInterval: *pollEvery,
			LagGate:      *maxLag != "",
			MaxLagGens:   maxLagGens,
			MaxLagAge:    maxLagAge,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(w, "marketd: "+format+"\n", args...)
			},
		},
	}, nil
}

// open builds, warm-starts, or follower-syncs every world and logs where
// each one's snapshot came from.
func (d *daemon) open(ctx context.Context, w io.Writer) (*scenario.Registry, error) {
	start := time.Now()
	fmt.Fprintf(w, "marketd: opening %d world(s)...\n", len(d.specs))
	reg, err := scenario.New(ctx, d.specs, d.opts)
	if err != nil {
		return nil, fmt.Errorf("marketd: %w", err)
	}
	for _, name := range reg.Names() {
		srv := reg.World(name)
		snap := srv.Snapshot()
		built := snap.BuiltAt.UTC().Format(time.RFC3339)
		switch {
		case srv.Follower():
			fmt.Fprintf(w, "marketd: [%s] follower of %s: serving generation %d (seed=%d, built %s)\n",
				name, d.opts.FollowURL, snap.Gen, snap.Cfg.Seed, built)
		case srv.WarmStarted():
			fmt.Fprintf(w, "marketd: [%s] warm start: restored generation %d (seed=%d, built %s)\n",
				name, snap.Gen, snap.Cfg.Seed, built)
		default:
			fmt.Fprintf(w, "marketd: [%s] snapshot built (seed=%d lirs=%d days=%d, %d workers): gen %d, %d transfers, %d price cells, %d delegations\n",
				name, snap.Cfg.Seed, snap.Cfg.NumLIRs, snap.Cfg.RoutingDays, snap.Workers, snap.Gen,
				snap.TransferTotal(), len(snap.PriceCells), snap.Delegations.Len())
		}
	}
	fmt.Fprintf(w, "marketd: %d world(s) ready in %v\n", len(reg.Names()), time.Since(start).Round(time.Millisecond))
	return reg, nil
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

// rebuildOnHUP rebuilds every world, each with its own config, on each
// SIGHUP until ctx ends. Readers keep the old snapshots until the new
// ones swap in.
func rebuildOnHUP(ctx context.Context, w io.Writer, reg *scenario.Registry) {
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() { // coordinated: exits when ctx is done, signal handler released
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				fmt.Fprintf(w, "marketd: SIGHUP: rebuilding %d world(s)\n", reg.RebuildAll())
			}
		}
	}()
}

// selfcheckPaths are the endpoints the -selfcheck smoke test must serve
// with 200 OK in every world: as listed for the default world (the bare
// paths alias it), under /v1/{name} for the others.
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

// scoped maps a bare path onto a world's route prefix: "" for the
// default world, /v1/{name} for the others (the scenario router turns
// /v1/storm/table1 into storm's /v1/table1 and /v1/storm/varz into its
// /varz).
func scoped(prefix, path string) string {
	if prefix == "" {
		return path
	}
	return prefix + strings.TrimPrefix(path, "/v1")
}

// worldPrefix is world name's route prefix: "" for the default world.
func worldPrefix(name, def string) string {
	if name == def {
		return ""
	}
	return "/v1/" + name
}

// loopbackServer serves reg on an ephemeral loopback port. The returned
// shutdown function drains the listener and waits for the registry's
// in-flight rebuilds; it is safe to call exactly once.
func loopbackServer(reg *scenario.Registry, drain time.Duration) (base string, shutdown func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("marketd: selfcheck listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	httpSrv := &http.Server{Handler: reg}
	done := make(chan error, 1)
	go func() { // coordinated: result drained in shutdown after cancel
		done <- serve.Serve(ctx, httpSrv, ln, drain)
	}()
	shutdown = func() error {
		cancel()
		err := <-done
		reg.Wait()
		if err != nil {
			return fmt.Errorf("marketd: selfcheck %w", err)
		}
		return nil
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

// response is one answer's identity: its body and ETag.
type response struct {
	body []byte
	etag string
}

// check serves the registry on an ephemeral loopback port and
// walks it through a real HTTP client, so CI needs no curl or
// background job control. With a data directory it then proves the
// durability contract end to end: shut down, warm-start a second
// registry over the same directory, and require byte- and
// ETag-identical answers (including 304 on a pre-restart ETag).
func (d *daemon) check(ctx context.Context, w io.Writer, reg *scenario.Registry) error {
	client := &http.Client{Timeout: 10 * time.Second}
	base, shutdown, err := loopbackServer(reg, d.drain)
	if err != nil {
		return err
	}
	table1, requests, checkErr := walkWorlds(w, client, base, d.opts.DataDir != "")
	if err := shutdown(); err != nil && checkErr == nil {
		checkErr = err
	}
	if checkErr != nil {
		return checkErr
	}
	if d.opts.DataDir == "" {
		fmt.Fprintf(w, "marketd: selfcheck passed (%d world(s), %d requests)\n", len(table1), requests)
		return nil
	}
	return d.checkRestart(ctx, w, client, table1, requests)
}

// walkWorlds proves the serving contract over HTTP for every world the
// listing names: each answers selfcheckPaths (plus /v1/history and
// ?gen= pins equal to the live bytes when durable), the bare paths are
// byte-identical to the default world's prefixed ones, and worlds with
// different seeds serve different transfer logs. It returns each
// world's /v1/table1 answer and the number of requests made.
func walkWorlds(w io.Writer, client *http.Client, base string, durable bool) (map[string]response, int, error) {
	listBody, _, err := checkGet(w, client, base, "/v1/scenarios")
	if err != nil {
		return nil, 0, err
	}
	var listing struct {
		Default   string `json:"default"`
		Scenarios []struct {
			Name string `json:"name"`
			Seed int64  `json:"seed"`
			Gen  uint64 `json:"gen"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(listBody, &listing); err != nil {
		return nil, 0, fmt.Errorf("marketd: selfcheck /v1/scenarios: %w", err)
	}
	if len(listing.Scenarios) == 0 {
		return nil, 0, fmt.Errorf("marketd: selfcheck /v1/scenarios lists no worlds")
	}

	requests := 1
	table1 := make(map[string]response, len(listing.Scenarios))
	transfers := make(map[string]response, len(listing.Scenarios))
	for _, sc := range listing.Scenarios {
		prefix := worldPrefix(sc.Name, listing.Default)
		paths := selfcheckPaths
		pinned := fmt.Sprintf("/v1/table1?gen=%d", sc.Gen)
		if durable {
			paths = append(paths[:len(paths):len(paths)], "/v1/history", pinned, fmt.Sprintf("/v1/prices?gen=%d", sc.Gen))
		}
		for _, p := range paths {
			body, etag, err := checkGet(w, client, base, scoped(prefix, p))
			if err != nil {
				return nil, 0, err
			}
			requests++
			switch p {
			case "/v1/table1":
				table1[sc.Name] = response{body, etag}
			case "/v1/transfers":
				transfers[sc.Name] = response{body, etag}
			case pinned:
				if !bytes.Equal(body, table1[sc.Name].body) {
					return nil, 0, fmt.Errorf("marketd: selfcheck: %s differs from the live artifact", scoped(prefix, p))
				}
			}
		}
	}

	// Isolation: distinct seeds must produce distinct worlds.
	for i, a := range listing.Scenarios {
		for _, b := range listing.Scenarios[i+1:] {
			if a.Seed != b.Seed && bytes.Equal(transfers[a.Name].body, transfers[b.Name].body) {
				return nil, 0, fmt.Errorf("marketd: selfcheck: worlds %s and %s (different seeds) serve identical transfer logs",
					a.Name, b.Name)
			}
		}
	}

	// Alias: bare paths are the default world, byte for byte.
	body, etag, err := checkGet(w, client, base, "/v1/"+listing.Default+"/transfers")
	if err != nil {
		return nil, 0, err
	}
	requests++
	if bare := transfers[listing.Default]; !bytes.Equal(body, bare.body) || etag != bare.etag {
		return nil, 0, fmt.Errorf("marketd: selfcheck: bare /v1/transfers is not byte-identical to /v1/%s/transfers", listing.Default)
	}
	return table1, requests, nil
}

// checkRestart is the second phase of a durable selfcheck: a fresh
// registry over the same data directory must warm-start every world,
// find every segment on disk intact, and answer with the bytes and
// ETags the first one persisted.
func (d *daemon) checkRestart(ctx context.Context, w io.Writer, client *http.Client, want map[string]response, requests int) error {
	fmt.Fprintln(w, "marketd: selfcheck restart: warm-starting a second server over", d.opts.DataDir)
	reg, err := scenario.New(ctx, d.specs, d.opts)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: %w", err)
	}

	// Re-checksum every segment on disk (frame CRCs + footer) — the same
	// verification replication followers run on downloads.
	segments := 0
	for _, name := range reg.Names() {
		if !reg.World(name).WarmStarted() {
			return fmt.Errorf("marketd: selfcheck restart: world %s did not warm-start", name)
		}
		st := reg.Store(name)
		for _, g := range st.Generations() {
			if err := st.Verify(g.Gen); err != nil {
				return fmt.Errorf("marketd: selfcheck: %w", err)
			}
			segments++
		}
	}
	fmt.Fprintf(w, "marketd: selfcheck verify: %d segment(s) re-checksummed clean\n", segments)

	base, shutdown, err := loopbackServer(reg, d.drain)
	if err != nil {
		return err
	}
	defer shutdown()
	for _, name := range reg.Names() {
		if err := checkContinuity(w, client, base, worldPrefix(name, reg.DefaultName()), want[name]); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "marketd: selfcheck passed (%d world(s), %d requests + restart continuity)\n", len(want), requests)
	return nil
}

// checkContinuity requires one warm-started world to answer /v1/table1
// with the pre-restart bytes and ETag, 304 on that ETag, and non-empty
// replication and history listings.
func checkContinuity(w io.Writer, client *http.Client, base, prefix string, want response) error {
	path := scoped(prefix, "/v1/table1")
	body, etag, err := checkGet(w, client, base, path)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, want.body) {
		return fmt.Errorf("marketd: selfcheck restart: %s body differs from pre-restart bytes", path)
	}
	if etag != want.etag {
		return fmt.Errorf("marketd: selfcheck restart: %s ETag %s, want %s", path, etag, want.etag)
	}

	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: %w", err)
	}
	req.Header.Set("If-None-Match", want.etag)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("marketd: selfcheck restart: conditional GET: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		return fmt.Errorf("marketd: selfcheck restart: pre-restart ETag answered %d, want 304", resp.StatusCode)
	}
	fmt.Fprintf(w, "marketd: selfcheck %-28s %d (ETag continuity)\n", path+" If-None-Match", resp.StatusCode)

	for _, p := range []string{"/v1/replication/generations", "/v1/history"} {
		body, _, err := checkGet(w, client, base, scoped(prefix, p))
		if err != nil {
			return err
		}
		var listing struct {
			Generations []struct {
				Gen uint64 `json:"gen"`
			} `json:"generations"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			return fmt.Errorf("marketd: selfcheck restart: %s: %w", scoped(prefix, p), err)
		}
		if len(listing.Generations) == 0 {
			return fmt.Errorf("marketd: selfcheck restart: %s lists no generations", scoped(prefix, p))
		}
	}
	return nil
}
