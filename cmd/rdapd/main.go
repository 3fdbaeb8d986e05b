// Command rdapd serves RFC 7483 RDAP ip-network lookups from a WHOIS
// split snapshot, or acts as a query client.
//
// Server:
//
//	rdapd -snapshot ripe.db.inetnum -listen 127.0.0.1:8080
//
// Client:
//
//	rdapd -query http://127.0.0.1:8080 -prefix 185.0.0.0/24
//
// -selfcheck boots the server on an ephemeral loopback port, queries
// every route (/ip/<addr>, /ip/<addr>/<len>, /varz) through a real HTTP
// client, and exits — the same smoke contract marketd -selfcheck has.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/rdap"
	"ipv4market/internal/serve"
	"ipv4market/internal/whois"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rdapd:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("rdapd", flag.ContinueOnError)
	var (
		snapshot  = fs.String("snapshot", "", "WHOIS split snapshot (RPSL inetnum objects)")
		listen    = fs.String("listen", "127.0.0.1:8080", "server listen address")
		query     = fs.String("query", "", "client mode: RDAP base URL to query")
		prefix    = fs.String("prefix", "", "client mode: prefix to look up (e.g. 185.0.0.0/24)")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request handler timeout")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
		selfcheck = fs.Bool("selfcheck", false, "boot on a loopback port, smoke-query every route, exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *query != "" {
		if *prefix == "" {
			return fmt.Errorf("client mode needs -prefix")
		}
		p, err := netblock.ParsePrefix(*prefix)
		if err != nil {
			return err
		}
		client := rdap.NewClient(*query, nil)
		obj, err := client.LookupPrefix(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "handle:       %s\n", obj.Handle)
		fmt.Fprintf(w, "range:        %s - %s\n", obj.StartAddress, obj.EndAddress)
		fmt.Fprintf(w, "name:         %s\n", obj.Name)
		fmt.Fprintf(w, "type:         %s\n", obj.Type)
		fmt.Fprintf(w, "country:      %s\n", obj.Country)
		fmt.Fprintf(w, "parentHandle: %s\n", obj.ParentHandle)
		if org, ok := obj.Registrant(); ok {
			fmt.Fprintf(w, "registrant:   %s\n", org)
		}
		if adm, ok := obj.Administrative(); ok {
			fmt.Fprintf(w, "admin-c:      %s\n", adm)
		}
		return nil
	}

	if *snapshot == "" {
		return fmt.Errorf("server mode needs -snapshot (or use -query for client mode)")
	}
	f, err := os.Open(*snapshot)
	if err != nil {
		return err
	}
	db, err := whois.ParseSnapshot(f)
	f.Close()
	if err != nil {
		return err
	}
	db.Freeze() // reads are concurrency-safe from here on

	if *selfcheck {
		return runSelfcheck(w, db, *timeout, *drain)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rdapd: serving %d inetnum objects on http://%s (GET /ip/<addr>[/<len>], /varz)\n", db.Len(), ln.Addr())

	// The same middleware stack and observability surface marketd uses
	// (internal/serve): recovery, per-request timeouts, per-route request
	// and latency counters on /varz, graceful shutdown on SIGINT/SIGTERM.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: rdapHandler(db, *timeout)}
	if err := serve.Serve(ctx, srv, ln, *drain); err != nil {
		return err
	}
	fmt.Fprintln(w, "rdapd: shut down cleanly")
	return nil
}

// runSelfcheck serves the database on an ephemeral loopback port,
// exercises every route — an address lookup, a prefix lookup, and /varz
// — through a real HTTP client, and reports pass/fail. The lookup
// targets come from the snapshot itself (its first object's start
// address), so any non-empty snapshot selfchecks without fixtures.
func runSelfcheck(w io.Writer, db *whois.DB, timeout, drain time.Duration) error {
	if db.Len() == 0 {
		return fmt.Errorf("rdapd: selfcheck: snapshot holds no inetnum objects")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("rdapd: selfcheck listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	httpSrv := &http.Server{Handler: rdapHandler(db, timeout)}
	done := make(chan error, 1)
	go func() { // coordinated: result drained below after cancel
		done <- serve.Serve(ctx, httpSrv, ln, drain)
	}()

	first := db.All()[0].First
	paths := []string{
		fmt.Sprintf("/ip/%s", first),
		fmt.Sprintf("/ip/%s/32", first),
		"/varz",
	}
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 10 * time.Second}
	var checkErr error
	for _, path := range paths {
		resp, err := client.Get(base + path)
		if err != nil {
			checkErr = fmt.Errorf("rdapd: selfcheck %s: %w", path, err)
			break
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			checkErr = fmt.Errorf("rdapd: selfcheck %s: read: %w", path, err)
			break
		}
		if resp.StatusCode != http.StatusOK {
			checkErr = fmt.Errorf("rdapd: selfcheck %s: status %d", path, resp.StatusCode)
			break
		}
		fmt.Fprintf(w, "rdapd: selfcheck %-24s %d (%d bytes)\n", path, resp.StatusCode, len(body))
	}

	cancel()
	if err := <-done; err != nil && checkErr == nil {
		checkErr = err
	}
	if checkErr != nil {
		return checkErr
	}
	fmt.Fprintf(w, "rdapd: selfcheck passed (%d endpoints)\n", len(paths))
	return nil
}

// rdapHandler assembles the server mux: RDAP lookups plus the shared
// /varz counter surface, every route instrumented through the same
// middleware stack marketd uses.
func rdapHandler(db *whois.DB, timeout time.Duration) http.Handler {
	metrics := serve.NewMetrics()
	mux := http.NewServeMux()
	mux.Handle("/ip/", serve.Wrap(rdap.NewServer(db), metrics, "/ip/", timeout))
	mux.Handle("GET /varz", serve.Wrap(metrics.VarzHandler(), metrics, "GET /varz", timeout))
	return mux
}
