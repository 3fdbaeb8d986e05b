// Command marketperf is the repository's end-to-end benchmark. It boots
// the real marketd binary on a fresh data directory, drives it over
// loopback from this one process, checks every response, and prints
// every metric by name and unit, ending with one JSON line.
//
//	bash marketperf/run.sh --workload artifacts --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"ipv4market/internal/scenario"
)

// workloadDef fixes what one workload boots and sends.
type workloadDef struct {
	// matrix boots the scenario matrix instead of the single default world.
	matrix bool
	// readRPS sizes the closed-loop read phase: seconds*readRPS requests,
	// about --seconds of work on a 2-core machine at the commit that
	// introduced the benchmark. 0 means no read phase.
	readRPS int
	// rebuildsPer is how many seconds of --seconds buy one rebuild; the
	// run makes at least minRebuilds.
	rebuildsPer float64
}

var workloads = map[string]workloadDef{
	// Static read path: serve mux, middleware and metrics, snapshot
	// artifact lookup, zero-copy segment read, net/http write.
	"artifacts": {readRPS: 3600},
	// Computed read path across two resident worlds: scenario router,
	// temporal index, delegation index, price table, query cache.
	"queries": {matrix: true, readRPS: 3600},
	// Write path: back-to-back same-seed rebuilds beside a paced stream.
	"rebuild": {rebuildsPer: 0.8},
}

const (
	// bootsPerRun cold boots per untraced run; setup_s is their median.
	bootsPerRun = 3
	// minRebuilds is the fewest rebuilds a run times; rebuild_s is their
	// median.
	minRebuilds = 5
	// streamRPS is the paced read stream's rate during rebuilds.
	streamRPS = 200
	// warmupRequests are sent, from another seed, before a read phase.
	warmupRequests = 300
	// readChunks cuts a closed-loop phase into chunks for the
	// median-of-chunks read metrics: at --seconds 10 each chunk holds
	// 2400-3600 samples, which leaves 24 or more beyond its p99. The
	// paced stream of a rebuild phase is cut into one chunk per rebuild
	// instead, so each chunk spans one persist.
	readChunks = 10
	// pollInterval is how often /v1/scenarios is read while waiting for
	// a rebuild's generation.
	pollInterval = 10 * time.Millisecond
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	marketd   string
	work      string
	scenarios string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "artifacts, queries or rebuild")
	flag.Uint64Var(&o.seed, "seed", 1, "request-generator seed")
	flag.IntVar(&o.seconds, "seconds", 10, "sizes the measured work")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.marketd, "marketd", "", "marketd binary")
	flag.StringVar(&o.work, "work", "", "scratch directory")
	flag.StringVar(&o.scenarios, "scenarios", "", "scenario spec directory for the matrix")
	flag.Parse()
	o.trace = traceFlag == 1
	if _, ok := workloads[o.workload]; !ok || o.marketd == "" || o.work == "" || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "marketperf: need -workload artifacts|queries|rebuild, -marketd, -work and -seconds >= 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "marketperf:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printResult writes one line per metric, then the JSON result line.
func printResult(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// session is one run's live state.
type session struct {
	o       options
	def     workloadDef
	tr      *tracer
	dir     string
	daemon  *daemon
	client  *client
	worlds  []world // every served world
	rebuilt string  // path prefix of the world that is rebuilt
	listAs  string  // its name in /v1/scenarios
	dataDir string  // the running server's data directory
	setups  []float64
	metrics map[string]metric
}

func (s *session) put(name string, v float64, unit string) {
	s.metrics[name] = metric{v, unit}
}

func run(o options) (res result, err error) {
	s := &session{o: o, def: workloads[o.workload], metrics: make(map[string]metric)}
	if o.trace {
		s.tr = newTracer(fmt.Sprintf("%s-%d-%d", o.workload, o.seed, time.Now().UnixNano()))
	}
	s.dir, err = filepath.Abs(filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(s.dir)
	defer func() {
		if s.daemon != nil {
			s.daemon.kill()
		}
	}()
	ctx := context.Background()

	if err := s.boot(); err != nil {
		return res, err
	}
	s.client = newClient(s.daemon.base)
	defer s.client.close()
	if err := s.discover(ctx); err != nil {
		return res, err
	}
	n := o.seconds * s.def.readRPS
	reads := s.requests(o.seed, n)
	stream := reads
	if n == 0 {
		stream = s.requests(o.seed, streamRPS*60)
	}
	// Read phase: closed loop, one request in flight, fixed count.
	var read readStats
	if n > 0 {
		s.client.closedLoop(ctx, nil, 0, s.requests(o.seed^0x5eed, warmupRequests))
		if read, err = s.readPhase(ctx, reads); err != nil {
			return res, err
		}
	}

	// Rebuild phase: K same-seed rebuilds beside a paced read stream.
	k := minRebuilds
	if s.def.rebuildsPer > 0 {
		k = max(k, int(float64(o.seconds)/s.def.rebuildsPer))
	}
	reb, err := s.rebuildPhase(ctx, k, stream)
	if err != nil {
		return res, err
	}

	if o.trace {
		s.overheadProbe(ctx)
	}
	s.client.close()
	rss, err := s.daemon.stop()
	s.daemon = nil
	if err != nil {
		return res, err
	}

	failed := s.client.failed.Load() + reb.failed
	attempted := s.client.attempted.Load() + int64(k)
	if o.trace {
		if err := s.layerMetrics(ctx, read, reb); err != nil {
			return res, err
		}
		if err := s.tr.write(filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))); err != nil {
			return res, err
		}
	} else {
		s.put("setup_s", median(s.setups), "s")
		s.put("rebuild_s", median(reb.seconds), "s")
		s.put("peak_rss_mb", rss, "MiB")
		if n > 0 {
			s.putLatency(read.samples, read.cpu, readChunks)
		} else {
			s.putLatency(reb.stream.samples, reb.cpu, k)
		}
	}
	fmt.Fprintf(os.Stderr, "marketperf: boots %.3f s, rebuilds %.3f s\n", s.setups, reb.seconds)
	if msg := s.client.firstError(); msg != "" {
		fmt.Fprintln(os.Stderr, "marketperf: first failure:", msg)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: s.metrics}, nil
}

// putLatency records the end-to-end read metrics of the measured phase.
// The phase is cut into consecutive chunks, and each metric is the
// median over the chunks of that chunk's value, so a burst of
// interference from outside the benchmark moves one chunk rather than
// the result.
func (s *session) putLatency(samples []sample, cpu time.Duration, chunks int) {
	if len(samples) == 0 {
		return // every read failed, and the run reports it
	}
	chunks = max(1, min(chunks, len(samples)))
	var rps, p50, p99 []float64
	var prev time.Duration
	for c := 0; c < chunks; c++ {
		chunk := samples[c*len(samples)/chunks : (c+1)*len(samples)/chunks]
		lat := make([]float64, len(chunk))
		for i, x := range chunk {
			lat[i] = ms(x.latency)
		}
		end := chunk[len(chunk)-1].at
		rps = append(rps, float64(len(chunk))/(end-prev).Seconds())
		prev = end
		p50 = append(p50, percentile(lat, 0.50))
		p99 = append(p99, percentile(lat, 0.99))
	}
	s.put("throughput_rps", median(rps), "1/s")
	s.put("p50_ms", median(p50), "ms")
	s.put("p99_ms", median(p99), "ms")
	s.put("server_cpu_s", cpu.Seconds(), "s")
	fmt.Printf("# p50_ms and p99_ms: median over %d chunks of %d samples each\n", chunks, len(samples)/chunks)
}

// boot cold-starts marketd bootsPerRun times (once when tracing) on a
// fresh data directory each time and keeps the last server running.
func (s *session) boot() error {
	boots := bootsPerRun
	if s.o.trace {
		boots = 1
	}
	for i := 0; i < boots; i++ {
		data := filepath.Join(s.dir, fmt.Sprintf("boot%d", i))
		args := []string{"-admin", "-drain", "2s"}
		if s.def.matrix {
			args = append(args, "-scenarios", s.o.scenarios, "-data-dir", data)
		} else {
			// The single world's store sits where a one-spec matrix would
			// keep a world named singleWorld, so the traced run can reopen
			// it as one.
			args = append(args, "-data-dir", filepath.Join(data, singleWorld))
		}
		id := s.tr.begin("setup.boot", 0)
		d, err := startMarketd(s.o.marketd, args...)
		s.tr.end(id)
		if err != nil {
			return err
		}
		s.setups = append(s.setups, d.setup.Seconds())
		if i == boots-1 {
			s.daemon = d
			s.dataDir = data
			break
		}
		if _, err := d.stop(); err != nil {
			return err
		}
		os.RemoveAll(data)
	}
	return nil
}

// discover learns the served worlds, pins every static artifact's
// fingerprint, and reads each world's transfer keys.
func (s *session) discover(ctx context.Context) error {
	if s.def.matrix {
		specs, err := scenario.LoadDir(s.o.scenarios)
		if err != nil {
			return err
		}
		for _, sp := range specs {
			s.worlds = append(s.worlds, world{prefix: "/" + sp.Name})
		}
		def := scenario.DefaultName(specs)
		s.rebuilt, s.listAs = "/"+def, def
	} else {
		s.worlds = []world{{prefix: ""}}
		s.rebuilt, s.listAs = "", "default"
	}
	for i, w := range s.worlds {
		for _, p := range staticPaths {
			if err := s.client.pin(ctx, "/v1"+w.prefix+p); err != nil {
				return err
			}
		}
		_, body, err := s.client.fetch(ctx, http.MethodGet, "/v1"+w.prefix+"/transfers", http.StatusOK)
		if err != nil {
			return err
		}
		keys, err := parseTransfers(body)
		if err != nil {
			return err
		}
		s.worlds[i].keys = keys
	}
	return nil
}

// prefixes lists the worlds' path prefixes.
func (s *session) prefixes() []string {
	out := make([]string, len(s.worlds))
	for i, w := range s.worlds {
		out[i] = w.prefix
	}
	return out
}

// requests generates n requests of this workload's mix from seed.
func (s *session) requests(seed uint64, n int) []request {
	switch s.o.workload {
	case "artifacts":
		return mixRequests(seed, s.prefixes(), n, staticEndpoints)
	case "queries":
		return queryRequests(seed, s.worlds, n)
	default:
		return mixRequests(seed, s.prefixes(), n, nil)
	}
}

// readStats is what the closed-loop read phase measured.
type readStats struct {
	samples []sample
	cpu     time.Duration // marketd CPU
	client  time.Duration // this process's CPU
	before  []*varzDoc    // traced runs: per-world /varz around the phase
	after   []*varzDoc
}

func (s *session) readPhase(ctx context.Context, reads []request) (readStats, error) {
	var rs readStats
	var err error
	if s.o.trace {
		if rs.before, err = s.scrapeVarz(ctx); err != nil {
			return rs, err
		}
	}
	cpu0, err := s.daemon.cpuTime()
	if err != nil {
		return rs, err
	}
	self0 := selfCPU()
	id := s.tr.begin("phase.read", 0)
	rs.samples = s.client.closedLoop(ctx, s.tr, id, reads)
	s.tr.end(id)
	rs.client = selfCPU() - self0
	cpu1, err := s.daemon.cpuTime()
	if err != nil {
		return rs, err
	}
	rs.cpu = cpu1 - cpu0
	if s.o.trace {
		if rs.after, err = s.scrapeVarz(ctx); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// rebuildStats is what the rebuild phase measured.
type rebuildStats struct {
	seconds []float64
	stream  pacedResult
	cpu     time.Duration
	client  time.Duration
	failed  int64
	before  []*varzDoc
	after   []*varzDoc
}

func (s *session) rebuildPhase(ctx context.Context, k int, stream []request) (rebuildStats, error) {
	var rb rebuildStats
	var err error
	if s.o.trace && s.o.workload == "rebuild" {
		if rb.before, err = s.scrapeVarz(ctx); err != nil {
			return rb, err
		}
	}
	cpu0, err := s.daemon.cpuTime()
	if err != nil {
		return rb, err
	}
	self0 := selfCPU()
	phase := s.tr.begin("phase.rebuild", 0)
	stop := make(chan struct{})
	done := make(chan pacedResult, 1)
	go func() {
		done <- s.client.paced(ctx, s.tr, phase, stream, streamRPS, runtime.NumCPU(), stop)
	}()
	for i := 0; i < k; i++ {
		id := s.tr.begin("marketd.rebuild", phase)
		d, err := s.rebuild(ctx)
		s.tr.end(id)
		if err != nil {
			rb.failed++
			fmt.Fprintln(os.Stderr, "marketperf: rebuild:", err)
			continue
		}
		rb.seconds = append(rb.seconds, d.Seconds())
		// Same seed, same bytes: every static artifact must still match
		// its set-up fingerprint.
		for _, p := range staticPaths {
			if err := s.client.get(ctx, "/v1"+s.rebuilt+p); err != nil {
				s.client.fail(err)
			}
		}
	}
	close(stop)
	rb.stream = <-done
	s.tr.end(phase)
	rb.client = selfCPU() - self0
	cpu1, err := s.daemon.cpuTime()
	if err != nil {
		return rb, err
	}
	rb.cpu = cpu1 - cpu0
	if s.o.trace && s.o.workload == "rebuild" {
		if rb.after, err = s.scrapeVarz(ctx); err != nil {
			return rb, err
		}
	}
	if len(rb.seconds) == 0 {
		return rb, fmt.Errorf("no rebuild completed")
	}
	return rb, nil
}

// rebuild triggers one same-seed rebuild of the rebuilt world and waits
// until /v1/scenarios lists its next generation. It never reads /varz,
// whose memory statistics stop the world.
func (s *session) rebuild(ctx context.Context) (time.Duration, error) {
	gen0, err := s.generation(ctx)
	if err != nil {
		return 0, err
	}
	admin := "/admin/rebuild"
	if s.rebuilt != "" {
		admin = "/v1" + s.rebuilt + admin // the scenario router forwards it
	}
	start := time.Now()
	if _, _, err := s.client.fetch(ctx, http.MethodPost, admin, http.StatusAccepted); err != nil {
		return 0, err
	}
	deadline := start.Add(bootTimeout)
	for time.Now().Before(deadline) {
		time.Sleep(pollInterval)
		gen, err := s.generation(ctx)
		if err != nil {
			return 0, err
		}
		if gen > gen0 {
			return time.Since(start), nil
		}
	}
	return 0, fmt.Errorf("generation %d not replaced within %v", gen0, bootTimeout)
}

// generation reads the rebuilt world's served generation.
func (s *session) generation(ctx context.Context) (uint64, error) {
	_, body, err := s.client.fetch(ctx, http.MethodGet, "/v1/scenarios", http.StatusOK)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Scenarios []struct {
			Name string `json:"name"`
			Gen  uint64 `json:"gen"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("GET /v1/scenarios: %w", err)
	}
	for _, sc := range doc.Scenarios {
		if sc.Name == s.listAs {
			return sc.Gen, nil
		}
	}
	return 0, fmt.Errorf("/v1/scenarios does not list %q", s.listAs)
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// singleWorld names the single default world when the traced run
// reopens its store as a one-world registry.
const singleWorld = "world"

// worldName turns a world's path prefix into its registry name.
func worldName(prefix string) string {
	if prefix == "" {
		return singleWorld
	}
	return strings.TrimPrefix(prefix, "/")
}
