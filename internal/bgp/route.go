// Package bgp provides the routing substrate for the delegation analysis:
// a BGP route/path-attribute model, an MRT (RFC 6396) encoder and decoder
// covering TABLE_DUMP_V2 RIB snapshots and BGP4MP updates, per-peer RIBs,
// a multi-monitor route collector, route sanitization (bogons, reserved
// ASNs, AS-path loops), and prefix-origin extraction with per-monitor
// visibility counts.
package bgp

import (
	"fmt"
	"sort"
	"strings"

	"ipv4market/internal/asorg"
	"ipv4market/internal/netblock"
)

// ASN is an autonomous system number (shared with the as2org dataset).
type ASN = asorg.ASN

// Origin is the BGP ORIGIN path attribute value.
type Origin uint8

// ORIGIN attribute values.
const (
	OriginIGP Origin = iota
	OriginEGP
	OriginIncomplete
)

// String names the origin code.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "INCOMPLETE"
	}
	return fmt.Sprintf("Origin(%d)", uint8(o))
}

// Segment types of the AS_PATH attribute.
const (
	SegmentSet      uint8 = 1 // AS_SET
	SegmentSequence uint8 = 2 // AS_SEQUENCE
)

// PathSegment is one AS_PATH segment.
type PathSegment struct {
	Type uint8 // SegmentSet or SegmentSequence
	ASNs []ASN
}

// ASPath is a sequence of path segments.
type ASPath []PathSegment

// NewPath builds a single-sequence AS path.
func NewPath(asns ...ASN) ASPath {
	return ASPath{{Type: SegmentSequence, ASNs: asns}}
}

// AppendSet appends an AS_SET segment (used when the origin aggregated
// routes).
func (p ASPath) AppendSet(asns ...ASN) ASPath {
	return append(p, PathSegment{Type: SegmentSet, ASNs: asns})
}

// OriginAS returns the origin (right-most) AS of the path. It reports
// false when the path is empty or ends in an AS_SET (the cases the
// inference algorithm discards).
func (p ASPath) OriginAS() (ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	last := p[len(p)-1]
	if last.Type != SegmentSequence || len(last.ASNs) == 0 {
		return 0, false
	}
	return last.ASNs[len(last.ASNs)-1], true
}

// EndsInSet reports whether the path terminates in an AS_SET.
func (p ASPath) EndsInSet() bool {
	return len(p) > 0 && p[len(p)-1].Type == SegmentSet
}

// HasLoop reports whether any ASN appears twice in AS_SEQUENCE segments,
// ignoring consecutive repeats (prepending is legitimate).
func (p ASPath) HasLoop() bool {
	// Paths are short: the ASNs seen so far sit in a fixed array that is
	// scanned linearly. A path with more distinct hops than it holds
	// spills them into a map, which keeps the check linear on the long
	// paths a decoded MRT file can carry.
	var small [16]ASN
	n := 0
	var spill map[ASN]bool
	var prev ASN
	havePrev := false
	for _, seg := range p {
		if seg.Type != SegmentSequence {
			havePrev = false
			continue
		}
		for _, a := range seg.ASNs {
			if havePrev && a == prev {
				continue // prepend
			}
			switch {
			case spill != nil:
				if spill[a] {
					return true
				}
				spill[a] = true
			case n < len(small):
				for _, b := range small[:n] {
					if b == a {
						return true
					}
				}
				small[n] = a
				n++
			default:
				for _, b := range small {
					if b == a {
						return true
					}
				}
				spill = make(map[ASN]bool, 2*len(small))
				for _, b := range small {
					spill[b] = true
				}
				spill[a] = true
			}
			prev, havePrev = a, true
		}
	}
	return false
}

// ContainsAS reports whether the ASN appears anywhere in the path.
func (p ASPath) ContainsAS(a ASN) bool {
	for _, seg := range p {
		for _, x := range seg.ASNs {
			if x == a {
				return true
			}
		}
	}
	return false
}

// Clone returns a deep copy of the path.
func (p ASPath) Clone() ASPath {
	out := make(ASPath, len(p))
	for i, seg := range p {
		out[i] = PathSegment{Type: seg.Type, ASNs: append([]ASN(nil), seg.ASNs...)}
	}
	return out
}

// Prepend returns a new path with the ASN prepended as an AS_SEQUENCE hop.
func (p ASPath) Prepend(a ASN) ASPath {
	if len(p) > 0 && p[0].Type == SegmentSequence {
		out := p.Clone()
		out[0].ASNs = append([]ASN{a}, out[0].ASNs...)
		return out
	}
	return append(ASPath{{Type: SegmentSequence, ASNs: []ASN{a}}}, p.Clone()...)
}

// String renders the path in the conventional text form, with AS_SETs in
// braces: "3320 1299 {64500 64501}".
func (p ASPath) String() string {
	var parts []string
	for _, seg := range p {
		var asns []string
		for _, a := range seg.ASNs {
			asns = append(asns, fmt.Sprintf("%d", uint32(a)))
		}
		s := strings.Join(asns, " ")
		if seg.Type == SegmentSet {
			s = "{" + strings.Join(asns, ",") + "}"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

// Route is one BGP route: a prefix and the path attributes the analysis
// cares about.
type Route struct {
	Prefix  netblock.Prefix
	Path    ASPath
	Origin  Origin
	NextHop netblock.Addr
}

// OriginAS returns the route's origin AS (see ASPath.OriginAS).
func (r Route) OriginAS() (ASN, bool) { return r.Path.OriginAS() }

// RIB is a single peer's routing table: one best route per prefix.
type RIB struct {
	routes map[netblock.Prefix]Route
}

// NewRIB returns an empty RIB.
func NewRIB() *RIB {
	return &RIB{routes: make(map[netblock.Prefix]Route)}
}

// Insert adds or replaces the route for its prefix.
func (rib *RIB) Insert(r Route) { rib.routes[r.Prefix] = r }

// Withdraw removes the route for the prefix, reporting whether one existed.
func (rib *RIB) Withdraw(p netblock.Prefix) bool {
	if _, ok := rib.routes[p]; !ok {
		return false
	}
	delete(rib.routes, p)
	return true
}

// Get returns the route for the prefix.
func (rib *RIB) Get(p netblock.Prefix) (Route, bool) {
	r, ok := rib.routes[p]
	return r, ok
}

// Len returns the number of routes.
func (rib *RIB) Len() int { return len(rib.routes) }

// Routes returns all routes sorted by prefix.
func (rib *RIB) Routes() []Route {
	out := make([]Route, 0, len(rib.routes))
	for _, r := range rib.routes {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Compare(out[j].Prefix) < 0 })
	return out
}

// Clone returns a deep-enough copy (routes are value types; paths are
// shared, which is safe because paths are never mutated in place).
func (rib *RIB) Clone() *RIB {
	c := NewRIB()
	for p, r := range rib.routes {
		c.routes[p] = r
	}
	return c
}
