package loadgen

import (
	"fmt"
	"net/http"
	"strings"
)

// Endpoint is one entry in a workload mix: a name for reporting, the
// server-side route pattern it exercises (matching the /varz route
// labels, so client- and server-side stats can be joined), a weight,
// a path generator, and a response validator.
type Endpoint struct {
	// Name labels this endpoint in results and reports.
	Name string
	// Route is the server's route pattern for the endpoint (the /varz
	// key), e.g. "GET /v1/prices". Several mix entries may share one
	// route (filtered and unfiltered prices both land on GET /v1/prices).
	Route string
	// Weight is the endpoint's relative share of the mix. Must be > 0.
	Weight int
	// Path renders one concrete request path (with query string) from
	// the worker's RNG stream.
	Path func(rng *RNG) string
	// Validate checks one response beyond its transport success. A nil
	// Validate accepts everything; ValidateJSON is the usual choice.
	Validate func(status int, header http.Header, body []byte) error
}

// Mix is a weighted endpoint set with cumulative-weight lookup. Build
// it once with NewMix; Pick is read-only and safe for concurrent use
// (each caller supplies its own RNG stream).
type Mix struct {
	endpoints []Endpoint
	cum       []int // cumulative weights, aligned with endpoints
	total     int
}

// NewMix validates the endpoints (unique names, positive weights) and
// returns the mix.
func NewMix(endpoints ...Endpoint) (*Mix, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("loadgen: mix needs at least one endpoint")
	}
	m := &Mix{endpoints: endpoints, cum: make([]int, len(endpoints))}
	seen := make(map[string]bool, len(endpoints))
	for i, e := range endpoints {
		if e.Name == "" || e.Path == nil {
			return nil, fmt.Errorf("loadgen: mix endpoint %d: Name and Path are required", i)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: mix endpoint %q: weight %d, want > 0", e.Name, e.Weight)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("loadgen: mix endpoint %q appears twice", e.Name)
		}
		seen[e.Name] = true
		m.total += e.Weight
		m.cum[i] = m.total
	}
	return m, nil
}

// Pick draws one endpoint according to the weights.
func (m *Mix) Pick(rng *RNG) *Endpoint {
	n := rng.Intn(m.total)
	for i, c := range m.cum {
		if n < c {
			return &m.endpoints[i]
		}
	}
	return &m.endpoints[len(m.endpoints)-1]
}

// Endpoints returns the mix entries in declaration order.
func (m *Mix) Endpoints() []Endpoint { return m.endpoints }

// MustMix is NewMix for known-valid static mix tables; it panics on a
// construction error (the regexp.MustCompile convention).
func MustMix(endpoints ...Endpoint) *Mix {
	m, err := NewMix(endpoints...)
	if err != nil {
		panic(err)
	}
	return m
}

// ValidateJSON is the standard validator: 200 OK, a JSON content type,
// and a body that starts like a JSON document. It reads no semantics —
// byte-level correctness across replicas is the fleet gate's job;
// the load gate only needs to notice a server answering garbage under
// pressure.
func ValidateJSON(status int, header http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200", status)
	}
	if ct := header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		return fmt.Errorf("content type %q, want application/json", ct)
	}
	trimmed := strings.TrimLeft(string(body), " \t\r\n")
	if len(trimmed) == 0 || (trimmed[0] != '{' && trimmed[0] != '[') {
		return fmt.Errorf("body does not look like JSON (%d bytes)", len(body))
	}
	return nil
}

// ValidateCSV accepts 200 OK with a CSV content type and a non-empty
// body.
func ValidateCSV(status int, header http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200", status)
	}
	if ct := header.Get("Content-Type"); !strings.Contains(ct, "text/csv") {
		return fmt.Errorf("content type %q, want text/csv", ct)
	}
	if len(body) == 0 {
		return fmt.Errorf("empty CSV body")
	}
	return nil
}

// mixSizes and mixRegions parameterize the filtered /v1/prices queries;
// both are valid server-side vocabularies (registry.ParseRIR accepts
// the region spellings).
var (
	mixSizes   = []string{"/8", "/16", "/24"}
	mixRegions = []string{"ARIN", "RIPE", "APNIC", "LACNIC", "AFRINIC"}
)

// DefaultMix is the standard serving workload: every /v1 read endpoint,
// weighted toward the hot paths (prices and delegation lookups), with a
// CSV encoding and parameterized filters in the mix. The weights sum to
// 100 so a weight reads as a percentage.
func DefaultMix() *Mix {
	constPath := func(p string) func(*RNG) string {
		return func(*RNG) string { return p }
	}
	return MustMix(
		Endpoint{
			Name: "table1", Route: "GET /v1/table1", Weight: 8,
			Path: constPath("/v1/table1"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "table1_csv", Route: "GET /v1/table1", Weight: 5,
			Path: constPath("/v1/table1?format=csv"), Validate: ValidateCSV,
		},
		Endpoint{
			Name: "figures", Route: "GET /v1/figures/{id}", Weight: 8,
			Path: func(rng *RNG) string {
				return fmt.Sprintf("/v1/figures/%d", 1+rng.Intn(4))
			},
			Validate: ValidateJSON,
		},
		Endpoint{
			Name: "prices_full", Route: "GET /v1/prices", Weight: 12,
			Path: constPath("/v1/prices"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "prices_filtered", Route: "GET /v1/prices", Weight: 13,
			Path: func(rng *RNG) string {
				size := mixSizes[rng.Intn(len(mixSizes))]
				if rng.Intn(2) == 0 {
					return "/v1/prices?size=" + size
				}
				return "/v1/prices?size=" + size + "&region=" + mixRegions[rng.Intn(len(mixRegions))]
			},
			Validate: ValidateJSON,
		},
		Endpoint{
			Name: "transfers", Route: "GET /v1/transfers", Weight: 7,
			Path: constPath("/v1/transfers"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "delegations", Route: "GET /v1/delegations", Weight: 5,
			Path: constPath("/v1/delegations"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "delegations_lookup", Route: "GET /v1/delegations", Weight: 10,
			Path: func(rng *RNG) string {
				// Random /8-/24 prefixes across the unicast space; misses
				// are fine (an empty lookup is still a 200), hits exercise
				// the trie walk.
				octet := func() int { return rng.Intn(224) }
				bits := 8 * (1 + rng.Intn(3))
				switch bits {
				case 8:
					return fmt.Sprintf("/v1/delegations?prefix=%d.0.0.0/8", octet())
				case 16:
					return fmt.Sprintf("/v1/delegations?prefix=%d.%d.0.0/16", octet(), rng.Intn(256))
				default:
					return fmt.Sprintf("/v1/delegations?prefix=%d.%d.%d.0/24", octet(), rng.Intn(256), rng.Intn(256))
				}
			},
			Validate: ValidateJSON,
		},
		Endpoint{
			Name: "leasing", Route: "GET /v1/leasing", Weight: 5,
			Path: constPath("/v1/leasing"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "headline", Route: "GET /v1/headline", Weight: 5,
			Path: constPath("/v1/headline"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "utilization", Route: "GET /v1/utilization", Weight: 4,
			Path: constPath("/v1/utilization"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "rpki", Route: "GET /v1/rpki", Weight: 3,
			Path: constPath("/v1/rpki"), Validate: ValidateJSON,
		},
		Endpoint{
			Name: "asof_point", Route: "GET /v1/asof", Weight: 8,
			Path: func(rng *RNG) string {
				return "/v1/asof?date=" + mixDate(rng) + "&prefix=" + mixPrefix(rng)
			},
			Validate: ValidateJSON,
		},
		Endpoint{
			Name: "asof_timeline", Route: "GET /v1/asof/timeline", Weight: 4,
			Path: func(rng *RNG) string {
				return "/v1/asof/timeline?prefix=" + mixPrefix(rng)
			},
			Validate: ValidateJSON,
		},
		Endpoint{
			Name: "asof_diff", Route: "GET /v1/asof/diff", Weight: 3,
			Path: func(rng *RNG) string {
				// A window of up to one year; both ends stay inside the
				// indexed epoch and from < to because the years differ.
				y, m, d := 2006+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(28)
				return fmt.Sprintf("/v1/asof/diff?from=%04d-%02d-%02d&to=%04d-%02d-%02d",
					y, m, d, y+1, 1+rng.Intn(12), 1+rng.Intn(28))
			},
			Validate: ValidateJSON,
		},
	)
}

// mixDate draws a date inside the served epoch [2005-01-01, 2020-07-01).
func mixDate(rng *RNG) string {
	return fmt.Sprintf("%04d-%02d-%02d", 2005+rng.Intn(15), 1+rng.Intn(12), 1+rng.Intn(28))
}

// mixPrefix draws a /8–/24 unicast prefix; misses are fine (an uncovered
// prefix is still a 200), hits exercise the temporal trie and span
// binary search.
func mixPrefix(rng *RNG) string {
	octet := 1 + rng.Intn(223)
	switch 8 * (1 + rng.Intn(3)) {
	case 8:
		return fmt.Sprintf("%d.0.0.0/8", octet)
	case 16:
		return fmt.Sprintf("%d.%d.0.0/16", octet, rng.Intn(256))
	default:
		return fmt.Sprintf("%d.%d.%d.0/24", octet, rng.Intn(256), rng.Intn(256))
	}
}
