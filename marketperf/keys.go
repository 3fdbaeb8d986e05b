package main

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"net/url"
	"strings"
	"time"

	"ipv4market/internal/loadgen"
)

// staticEndpoints are the DefaultMix entries served from pre-encoded
// snapshot artifacts; the artifacts workload sends only these.
var staticEndpoints = map[string]bool{
	"table1": true, "table1_csv": true, "figures": true, "prices_full": true,
	"transfers": true, "delegations": true, "leasing": true, "headline": true,
	"utilization": true, "rpki": true,
}

// staticPaths are every distinct path the static endpoints can produce,
// relative to /v1 of one world.
var staticPaths = []string{
	"/table1", "/table1?format=csv", "/figures/1", "/figures/2", "/figures/3",
	"/figures/4", "/prices", "/transfers", "/delegations", "/leasing",
	"/headline", "/utilization", "/rpki",
}

// queryWeights are the computed endpoints the queries workload sends,
// at their DefaultMix weights.
var queryWeights = []struct {
	endpoint string
	weight   int
}{
	{"prices_filtered", 13},
	{"delegations_lookup", 10},
	{"asof_point", 8},
	{"asof_timeline", 4},
	{"asof_diff", 3},
}

// The as-of epoch every world indexes: [epochStart, epochEnd).
var (
	epochStart = time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	epochEnd   = time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
	// The quarters the price cells cover.
	priceFirst = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	priceLast  = time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
)

// transferKey is one transfer of a world's /v1/transfers log: the block,
// the date it moved, the receiving registry, and the /16 containing the
// block (the block itself when it is a /16 or larger).
type transferKey struct {
	prefix string
	date   time.Time
	rir    string
	within string
}

// lookupBits is the prefix length delegation lookups ask for. A lookup
// of the transferred block itself almost never finds a lease; its
// covering /16 finds one about half the time on the default world, and
// /16s are still far more numerous than a query cache's entries.
const lookupBits = 16

// parseTransfers extracts the transfer keys from a /v1/transfers body.
func parseTransfers(body []byte) ([]transferKey, error) {
	var doc struct {
		Transfers []struct {
			Prefix string `json:"prefix"`
			Date   string `json:"date"`
			ToRIR  string `json:"to_rir"`
		} `json:"transfers"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("parse transfers: %w", err)
	}
	keys := make([]transferKey, 0, len(doc.Transfers))
	for _, t := range doc.Transfers {
		d, err := time.Parse("2006-01-02", t.Date)
		if err != nil {
			return nil, fmt.Errorf("parse transfers: date %q: %w", t.Date, err)
		}
		p, err := netip.ParsePrefix(t.Prefix)
		if err != nil {
			return nil, fmt.Errorf("parse transfers: prefix %q: %w", t.Prefix, err)
		}
		within := p
		if p.Bits() > lookupBits {
			within = netip.PrefixFrom(p.Addr(), lookupBits).Masked()
		}
		keys = append(keys, transferKey{t.Prefix, d, t.ToRIR, within.String()})
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("parse transfers: empty transfer log")
	}
	return keys, nil
}

// world is one served world as the request generators see it: the path
// prefix its /v1 surface lives under ("" for the bare /v1 of a
// single-world server, "/baseline" under a scenario matrix) and its
// transfer keys.
type world struct {
	prefix string
	keys   []transferKey
}

// day formats a date the way the API takes it. Dates are built with
// time arithmetic, so only real calendar days (no Feb 29 of a common
// year) are ever produced.
func day(t time.Time) string { return t.Format("2006-01-02") }

// clampDate keeps d inside the as-of epoch.
func clampDate(d time.Time) time.Time {
	if d.Before(epochStart) {
		return epochStart
	}
	if !d.Before(epochEnd) {
		return epochEnd.AddDate(0, 0, -1)
	}
	return d
}

// queryRequests draws n computed-query requests from the worlds' own
// transfer logs, split evenly across the worlds in turn. Keys come from
// real transfers, so as-of and delegation lookups land on indexed
// blocks; dates are offset from the transfer date, so the key space is
// far larger than a snapshot's 256-entry query cache. The same seed and
// worlds always give the same sequence.
func queryRequests(seed uint64, worlds []world, n int) []request {
	rng := loadgen.Derive(seed, 1)
	total := 0
	for _, q := range queryWeights {
		total += q.weight
	}
	out := make([]request, n)
	for i := range out {
		w := worlds[i%len(worlds)]
		pick := rng.Intn(total)
		endpoint := queryWeights[len(queryWeights)-1].endpoint
		for _, q := range queryWeights {
			if pick < q.weight {
				endpoint = q.endpoint
				break
			}
			pick -= q.weight
		}
		k := w.keys[rng.Intn(len(w.keys))]
		var path string
		switch endpoint {
		case "prices_filtered":
			// The receiving region, the block's size and a quarter near
			// the transfer, so the filter selects a populated cell.
			q := k.date.AddDate(0, 3*(rng.Intn(5)-2), 0)
			if q.Before(priceFirst) {
				q = priceFirst
			}
			if q.After(priceLast) {
				q = priceLast
			}
			region := strings.Fields(k.rir)[0] // "RIPE NCC" is spelled RIPE
			path = fmt.Sprintf("/prices?size=/%s&region=%s&quarter=%dQ%d",
				k.prefix[strings.IndexByte(k.prefix, '/')+1:], url.QueryEscape(region),
				q.Year(), (int(q.Month())-1)/3+1)
		case "delegations_lookup":
			path = "/delegations?prefix=" + k.within
		case "asof_point":
			d := clampDate(k.date.AddDate(0, 0, rng.Intn(730)-365))
			path = "/asof?date=" + day(d) + "&prefix=" + k.prefix
		case "asof_timeline":
			path = "/asof/timeline?prefix=" + k.prefix
		case "asof_diff":
			from := clampDate(k.date.AddDate(0, 0, -rng.Intn(90)))
			to := clampDate(from.AddDate(0, 0, 1+rng.Intn(180)))
			path = "/asof/diff?from=" + day(from) + "&to=" + day(to)
		}
		out[i] = request{endpoint, "/v1" + w.prefix + path}
	}
	return out
}

// mixRequests draws n requests from loadgen's DefaultMix, keeping only
// the endpoints keep accepts (all of them when keep is nil), spread
// evenly across the worlds in turn.
func mixRequests(seed uint64, prefixes []string, n int, keep map[string]bool) []request {
	mix := loadgen.DefaultMix()
	rng := loadgen.Derive(seed, 0)
	out := make([]request, 0, n)
	for len(out) < n {
		e := mix.Pick(rng)
		path := e.Path(rng)
		if keep != nil && !keep[e.Name] {
			continue
		}
		p := prefixes[len(out)%len(prefixes)]
		out = append(out, request{e.Name, "/v1" + p + strings.TrimPrefix(path, "/v1")})
	}
	return out
}
