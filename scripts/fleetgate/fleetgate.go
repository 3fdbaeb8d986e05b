// Command fleetgate is check.sh's fleet gate: it boots a leader marketd
// with a durable store and a follower replicating from it, once for a
// single world and once for the shipped examples/scenarios matrix (a
// calm baseline plus an adversarial churnstorm world), and asserts the
// replication and scenario contracts end to end over real processes
// and real sockets:
//
//   - /v1/scenarios lists the expected worlds, the default among them,
//     and the matrix holds at least one adversarial world;
//   - every world's artifacts, and the bare /v1/table1 and
//     /v1/prices?size=24, answer byte- and ETag-identically on leader
//     and follower;
//   - bare /v1/... paths alias the default world byte-for-byte;
//   - on the matrix, rebuilding the adversarial world advances only its
//     generation with the same bytes, leaves every other world's
//     generation, bytes, and ETags untouched, and the follower catches
//     up and stays byte-identical (the load gate rebuilds a one-world
//     leader under load and waits for its followers);
//   - the follower answers 409 on POST /admin/rebuild;
//   - both processes shut down cleanly on SIGTERM.
//
// Usage, from the repository root:
//
//	go run ./scripts/fleetgate <path-to-marketd-binary>
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ipv4market/internal/harness"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/fleetgate <marketd-binary>")
		os.Exit(2)
	}
	work, err := os.MkdirTemp("", "ipv4market-fleetgate")
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetgate:", err)
		os.Exit(1)
	}
	// The pairs share nothing (own ports, own data dirs), so they run
	// side by side; each one stops its own processes before reporting.
	errs := make(chan error, len(pairs))
	for _, p := range pairs {
		go func() { // coordinated: result received below
			if err := p.check(os.Args[1], filepath.Join(work, p.name)); err != nil {
				errs <- fmt.Errorf("%s: %w", p.name, err)
				return
			}
			errs <- nil
		}()
	}
	failed := false
	for range pairs {
		if err := <-errs; err != nil {
			fmt.Fprintln(os.Stderr, "fleetgate:", err)
			failed = true
		}
	}
	os.RemoveAll(work)
	if failed {
		os.Exit(1)
	}
	fmt.Println("fleetgate: fleet gate passed")
}

// pair is one leader/follower deployment the gate boots: the world
// flags both processes get and the number of worlds they must serve.
type pair struct {
	name   string
	args   []string
	worlds int
}

var pairs = []pair{
	{"one-world", nil, 1},
	{"matrix", []string{"-scenarios", "examples/scenarios"}, 2},
}

// artifactPaths is the per-world surface compared across leader and
// follower; barePaths are compared as-is.
var (
	artifactPaths = []string{"/table1", "/utilization", "/rpki", "/prices"}
	barePaths     = []string{"/v1/table1", "/v1/prices?size=24"}
)

// get fetches path from base and requires 200 OK.
func get(base, path string) ([]byte, string, error) {
	code, body, etag, err := harness.Fetch(context.Background(), http.MethodGet, base, path)
	if err != nil {
		return nil, "", err
	}
	if code != http.StatusOK {
		return nil, "", fmt.Errorf("GET %s%s: status %d, want 200", base, path, code)
	}
	return body, etag, nil
}

// post sends POST path to base and requires status want.
func post(base, path string, want int) error {
	code, _, _, err := harness.Fetch(context.Background(), http.MethodPost, base, path)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("POST %s%s: status %d, want %d", base, path, code, want)
	}
	return nil
}

// listing is the subset of GET /v1/scenarios the gate asserts on.
type listing struct {
	Default   string `json:"default"`
	Scenarios []struct {
		Name        string `json:"name"`
		Default     bool   `json:"default"`
		Adversarial bool   `json:"adversarial"`
		Gen         uint64 `json:"gen"`
	} `json:"scenarios"`
}

func fetchListing(base string) (*listing, error) {
	body, _, err := get(base, "/v1/scenarios")
	if err != nil {
		return nil, err
	}
	var l listing
	if err := json.Unmarshal(body, &l); err != nil {
		return nil, fmt.Errorf("GET /v1/scenarios: %w", err)
	}
	return &l, nil
}

func (l *listing) gen(name string) (uint64, bool) {
	for _, sc := range l.Scenarios {
		if sc.Name == name {
			return sc.Gen, true
		}
	}
	return 0, false
}

// sameAnswer requires path to answer byte- and ETag-identically on
// both bases.
func sameAnswer(a, b, path string) error {
	abody, aetag, err := get(a, path)
	if err != nil {
		return err
	}
	bbody, betag, err := get(b, path)
	if err != nil {
		return err
	}
	if !bytes.Equal(abody, bbody) {
		return fmt.Errorf("%s: bodies differ (%d vs %d bytes)", path, len(abody), len(bbody))
	}
	if aetag == "" || aetag != betag {
		return fmt.Errorf("%s: ETags differ: %q vs %q", path, aetag, betag)
	}
	return nil
}

// check boots the pair's leader and follower and asserts the fleet
// contract over them.
func (p pair) check(bin, work string) error {
	common := append([]string{"-lirs", "14", "-days", "40", "-listen", "127.0.0.1:0", "-admin"}, p.args...)
	leader, err := harness.Start(os.Stdout, p.name+" leader", bin, append([]string{
		"-data-dir", filepath.Join(work, "leader")}, common...)...)
	if err != nil {
		return err
	}
	defer leader.Kill()

	// The follower prints its serving line only after every world's
	// initial sync succeeded, so reaching it proves replication
	// happened.
	follower, err := harness.Start(os.Stdout, p.name+" follower", bin, append([]string{
		"-data-dir", filepath.Join(work, "follower"),
		"-follow", leader.Base, "-poll-interval", "100ms"}, common...)...)
	if err != nil {
		return err
	}
	defer follower.Kill()

	l, err := fetchListing(leader.Base)
	if err != nil {
		return err
	}
	if len(l.Scenarios) != p.worlds {
		return fmt.Errorf("/v1/scenarios lists %d world(s), want %d", len(l.Scenarios), p.worlds)
	}
	adversarial := ""
	for _, sc := range l.Scenarios {
		if sc.Default != (sc.Name == l.Default) {
			return fmt.Errorf("world %q default flag disagrees with listing default %q", sc.Name, l.Default)
		}
		if sc.Adversarial && adversarial == "" {
			adversarial = sc.Name
		}
	}
	if p.worlds > 1 && adversarial == "" {
		return fmt.Errorf("no adversarial world in the matrix; the gate requires one")
	}
	fmt.Printf("fleetgate: %s: %d world(s), default %q\n", p.name, len(l.Scenarios), l.Default)

	// Leader and follower answer identically, and the bare paths alias
	// the default world.
	for _, sc := range l.Scenarios {
		for _, path := range artifactPaths {
			if err := sameAnswer(leader.Base, follower.Base, "/v1/"+sc.Name+path); err != nil {
				return fmt.Errorf("leader/follower: %w", err)
			}
		}
	}
	for _, path := range barePaths {
		if err := sameAnswer(leader.Base, follower.Base, path); err != nil {
			return fmt.Errorf("leader/follower: %w", err)
		}
	}
	for _, path := range artifactPaths {
		body, etag, err := get(leader.Base, "/v1"+path)
		if err != nil {
			return err
		}
		pbody, petag, err := get(leader.Base, "/v1/"+l.Default+path)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, pbody) || etag != petag {
			return fmt.Errorf("/v1%s: bare path differs from default world /v1/%s%s", path, l.Default, path)
		}
	}
	fmt.Printf("fleetgate: %s: leader/follower identical; bare /v1 paths alias %q\n", p.name, l.Default)

	if adversarial != "" {
		if err := checkIsolatedRebuild(leader.Base, follower.Base, l, adversarial); err != nil {
			return fmt.Errorf("%s rebuild: %w", adversarial, err)
		}
		fmt.Printf("fleetgate: %s: rebuilt %s alone; follower caught up\n", p.name, adversarial)
	}

	if err := post(follower.Base, "/admin/rebuild", http.StatusConflict); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	fmt.Printf("fleetgate: %s: follower refused /admin/rebuild with 409\n", p.name)

	return harness.Stop(follower, leader)
}

// checkIsolatedRebuild rebuilds only target on the leader and requires
// its generation to advance with the same bytes (same config), every
// other world to stay untouched, and the follower to catch up.
func checkIsolatedRebuild(leader, follower string, l *listing, target string) error {
	type answer struct {
		body []byte
		etag string
	}
	before := make(map[string]answer)
	for _, sc := range l.Scenarios {
		body, etag, err := get(leader, "/v1/"+sc.Name+"/utilization")
		if err != nil {
			return err
		}
		before[sc.Name] = answer{body, etag}
	}
	oldGen, _ := l.gen(target)
	if err := post(leader, "/v1/"+target+"/admin/rebuild", http.StatusAccepted); err != nil {
		return err
	}
	newGen, err := waitGen(leader, target, oldGen)
	if err != nil {
		return err
	}
	l2, err := fetchListing(leader)
	if err != nil {
		return err
	}
	for _, sc := range l.Scenarios {
		if g, _ := l2.gen(sc.Name); sc.Name != target && g != sc.Gen {
			return fmt.Errorf("world %s generation moved %d -> %d on a %s rebuild", sc.Name, sc.Gen, g, target)
		}
		body, etag, err := get(leader, "/v1/"+sc.Name+"/utilization")
		if err != nil {
			return err
		}
		if b := before[sc.Name]; !bytes.Equal(body, b.body) || etag != b.etag {
			return fmt.Errorf("world %s bytes or ETag changed across a same-config rebuild of %s", sc.Name, target)
		}
	}
	if _, err := waitGen(follower, target, newGen-1); err != nil {
		return fmt.Errorf("follower catch-up: %w", err)
	}
	if err := sameAnswer(leader, follower, "/v1/"+target+"/utilization"); err != nil {
		return fmt.Errorf("after catch-up: %w", err)
	}
	return nil
}

// waitGen polls base's listing until name's generation exceeds past,
// returning the new generation.
func waitGen(base, name string, past uint64) (uint64, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		l, err := fetchListing(base)
		if err != nil {
			return 0, err
		}
		if g, ok := l.gen(name); ok && g > past {
			return g, nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return 0, fmt.Errorf("%s: generation did not advance past %d within 60s", name, past)
}
