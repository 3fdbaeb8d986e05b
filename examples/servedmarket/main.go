// Servedmarket: stand up the snapshot serving layer in-process, query it
// like an HTTP client would, and trigger a live rebuild under load — the
// programmatic equivalent of running cmd/marketd. Run with:
//
//	go run ./examples/servedmarket
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
)

func main() {
	// A small world, built exactly once: the snapshot precomputes every
	// table and figure, so queries below never run the pipelines again.
	cfg := simulation.DefaultConfig()
	cfg.Seed = 42
	cfg.NumLIRs = 16
	cfg.RoutingDays = 60

	start := time.Now()
	srv, err := serve.New(cfg, serve.Options{EnableAdmin: true})
	if err != nil {
		log.Fatal(err)
	}
	snap := srv.Snapshot()
	fmt.Printf("snapshot #%d built in %v: %d transfers, %d price cells, %d delegations\n",
		snap.Seq, time.Since(start).Round(time.Millisecond),
		snap.TransferTotal(), len(snap.PriceCells), snap.Delegations.Len())

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The study's headline numbers, over the wire.
	var headline struct {
		MeanPrice2020 float64 `json:"mean_price_2020"`
		GrowthFactor  float64 `json:"growth_factor"`
		SizePremium   float64 `json:"size_premium"`
	}
	getJSON(ts, "/v1/headline", &headline)
	fmt.Printf("headline: mean 2020 price $%.2f/addr, %.1fx growth, %.2fx small-block premium\n",
		headline.MeanPrice2020, headline.GrowthFactor, headline.SizePremium)

	// A filtered price query; the second request is served from the
	// per-snapshot cache without recomputing anything.
	var prices struct {
		N int `json:"n"`
	}
	getJSON(ts, "/v1/prices?size=/16", &prices)
	getJSON(ts, "/v1/prices?size=/16", &prices)
	fmt.Printf("prices: %d /16 cells (second fetch was a cache hit)\n", prices.N)

	// A delegation lookup against the netblock trie.
	var lookup struct {
		Covered []json.RawMessage `json:"covered"`
	}
	getJSON(ts, "/v1/delegations?prefix=0.0.0.0/0", &lookup)
	fmt.Printf("delegations: /0 lookup covers %d leases\n", len(lookup.Covered))

	// ETag revalidation: the second conditional request costs no body.
	resp, err := http.Get(ts.URL + "/v1/table1")
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/table1", nil)
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp2.Body.Close()
	fmt.Printf("table1 revalidation: %s\n", resp2.Status)

	// A live rebuild with a new seed: readers keep the old snapshot until
	// the replacement swaps in atomically.
	rebuild, err := http.Post(ts.URL+"/admin/rebuild?seed=7", "", nil)
	if err != nil {
		log.Fatal(err)
	}
	rebuild.Body.Close()
	for srv.Rebuilding() {
		getJSON(ts, "/v1/table1", &struct{}{}) // the read path never blocks
		time.Sleep(10 * time.Millisecond)
	}
	srv.Wait()
	snap = srv.Snapshot()
	fmt.Printf("rebuilt: now serving snapshot #%d (seed=%d)\n", snap.Seq, snap.Cfg.Seed)
}

func getJSON(ts *httptest.Server, path string, v any) {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
}
