package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"ipv4market/internal/delegation"
	"ipv4market/internal/market"
	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/simulation"
	"ipv4market/internal/stats"
	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// This file is the bridge between the serving layer and internal/store:
// snapshotRecord flattens a built Snapshot into store artifacts,
// restoreSnapshot rebuilds a servable Snapshot from a persisted
// generation. The contract both directions is byte-exactness: a
// warm-started server must serve the same bodies and ETags a cold-built
// one does, including filtered queries, which is why the price cells
// and the delegation list ride along as auxiliary state artifacts
// (their keys carry the statePrefix and are never served directly).

const (
	statePrefix     = "_state/"
	statePriceCells = statePrefix + "pricecells"
	stateDelegs     = statePrefix + "delegations"
	stateTemporal   = statePrefix + "temporal"

	ctypeJSON = "application/json"
	ctypeCSV  = "text/csv"
)

// statePriceCell is the exact-round-trip encoding of one market price
// cell. Float64 values survive encoding/json unchanged (shortest
// round-trip rendering), so a restored cell filters and re-encodes to
// the same bytes as the original.
type statePriceCell struct {
	Quarter  string    `json:"q"`
	Bits     int       `json:"bits"`
	Region   string    `json:"region"`
	N        int       `json:"n"`
	Min      float64   `json:"min"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Max      float64   `json:"max"`
	Mean     float64   `json:"mean"`
	LowFence float64   `json:"low_fence"`
	HiFence  float64   `json:"hi_fence"`
	Outliers []float64 `json:"outliers,omitempty"`
}

// stateDelegation is one delegation in the auxiliary state artifact.
type stateDelegation struct {
	Parent string `json:"p"`
	Child  string `json:"c"`
	From   uint32 `json:"f"`
	To     uint32 `json:"t"`
}

// stateDelegationDoc carries the delegation index's day along with the
// list, so the restored index reports the same date.
type stateDelegationDoc struct {
	Date        time.Time         `json:"date"`
	Delegations []stateDelegation `json:"delegations"`
}

// snapshotRecord flattens snap into a store record: metadata plus every
// pre-encoded artifact (JSON and CSV bodies with their ETags, in sorted
// key order) and the auxiliary state needed to answer filtered queries
// after a restore.
func snapshotRecord(snap *Snapshot) (store.Meta, []store.Artifact, error) {
	meta := store.Meta{
		Created:     snap.BuiltAt,
		Seed:        snap.Cfg.Seed,
		NumLIRs:     snap.Cfg.NumLIRs,
		RoutingDays: snap.Cfg.RoutingDays,
		Workers:     snap.Workers,
		BuildNS:     int64(snap.BuildTime),
		Transfers:   snap.TransferTotal(),
	}
	for _, st := range snap.Stages {
		meta.Stages = append(meta.Stages, store.Stage{Name: st.Name, NS: int64(st.Duration)})
	}

	keys := make([]string, 0, len(snap.static))
	for key := range snap.static {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	arts := make([]store.Artifact, 0, 2*len(keys)+2)
	for _, key := range keys {
		art := snap.static[key]
		arts = append(arts, store.Artifact{Key: key, ContentType: ctypeJSON, ETag: art.jsonETag, Body: art.json})
		if art.csv != nil {
			arts = append(arts, store.Artifact{Key: key, ContentType: ctypeCSV, ETag: art.csvETag, Body: art.csv})
		}
	}

	cells := make([]statePriceCell, 0, len(snap.PriceCells))
	for _, c := range snap.PriceCells {
		cells = append(cells, statePriceCell{
			Quarter: c.Quarter.String(), Bits: c.Bits, Region: c.Region.String(),
			N: c.Box.N, Min: c.Box.Min, Q1: c.Box.Q1, Median: c.Box.Median,
			Q3: c.Box.Q3, Max: c.Box.Max, Mean: c.Box.Mean,
			LowFence: c.Box.LowFence, HiFence: c.Box.HiFence, Outliers: c.Box.Outliers,
		})
	}
	cellsJSON, err := json.Marshal(cells)
	if err != nil {
		return store.Meta{}, nil, fmt.Errorf("serve: persist price cells: %w", err)
	}
	arts = append(arts, store.Artifact{Key: statePriceCells, ContentType: ctypeJSON, Body: cellsJSON})

	doc := stateDelegationDoc{Date: snap.Delegations.Date()}
	for _, d := range snap.Delegations.ds {
		doc.Delegations = append(doc.Delegations, stateDelegation{
			Parent: d.Parent.String(), Child: d.Child.String(),
			From: uint32(d.From), To: uint32(d.To),
		})
	}
	delegJSON, err := json.Marshal(doc)
	if err != nil {
		return store.Meta{}, nil, fmt.Errorf("serve: persist delegations: %w", err)
	}
	arts = append(arts, store.Artifact{Key: stateDelegs, ContentType: ctypeJSON, Body: delegJSON})

	temporalJSON, err := snap.Temporal.Record()
	if err != nil {
		return store.Meta{}, nil, fmt.Errorf("serve: persist temporal index: %w", err)
	}
	arts = append(arts, store.Artifact{Key: stateTemporal, ContentType: ctypeJSON, Body: temporalJSON})

	return meta, arts, nil
}

// assembleArtifacts folds a persisted artifact list back into the
// serving representation, pairing JSON and CSV encodings under one key.
// State artifacts (statePrefix keys) are returned separately.
func assembleArtifacts(arts []store.Artifact) (static map[string]*artifact, aux map[string][]byte, err error) {
	static = make(map[string]*artifact)
	aux = make(map[string][]byte)
	for _, a := range arts {
		if strings.HasPrefix(a.Key, statePrefix) {
			aux[a.Key] = a.Body
			continue
		}
		art := static[a.Key]
		if art == nil {
			art = &artifact{}
			static[a.Key] = art
		}
		switch a.ContentType {
		case ctypeJSON:
			art.json, art.jsonETag = a.Body, a.ETag
		case ctypeCSV:
			art.csv, art.csvETag = a.Body, a.ETag
		default:
			return nil, nil, fmt.Errorf("serve: artifact %q: unknown content type %q", a.Key, a.ContentType)
		}
		// The stored ETag must match the body it travels with — a strong
		// tag is content-derived, so this doubles as an integrity check
		// beyond the store's CRCs.
		if want := etagOf(a.Body); a.ETag != want {
			return nil, nil, fmt.Errorf("serve: artifact %q (%s): stored ETag %s does not match body (%s)",
				a.Key, a.ContentType, a.ETag, want)
		}
	}
	return static, aux, nil
}

// restoreSnapshot rebuilds a servable Snapshot from a persisted
// generation. base supplies the config knobs the store does not carry
// (calendar windows, population probabilities); the persisted seed,
// LIR count and routing window override it so the snapshot describes
// the data it actually serves. The result has the same shape as a
// built snapshot: static artifacts, price cells and table, delegation
// index, temporal index and event rows, and the transfer count.
func restoreSnapshot(meta store.Meta, arts []store.Artifact, base simulation.Config) (*Snapshot, error) {
	static, aux, err := assembleArtifacts(arts)
	if err != nil {
		return nil, err
	}
	for _, key := range []string{"table1", "prices", "delegations"} {
		if _, ok := static[key]; !ok {
			return nil, fmt.Errorf("serve: restore: generation %d lacks artifact %q", meta.Gen, key)
		}
	}
	// fig1 shares the prices artifact (one set of bytes, one ETag); the
	// store carries it once under each key, so nothing to re-link here.

	cfg := base
	cfg.Seed = meta.Seed
	cfg.NumLIRs = meta.NumLIRs
	cfg.RoutingDays = meta.RoutingDays

	snap := &Snapshot{
		Cfg:       cfg,
		Gen:       meta.Gen,
		Source:    SourceStore,
		BuiltAt:   meta.Created,
		BuildTime: time.Duration(meta.BuildNS),
		Workers:   meta.Workers,
		static:    static,
		transfers: meta.Transfers,
	}
	for _, st := range meta.Stages {
		snap.Stages = append(snap.Stages, StageTiming{Name: st.Name, Duration: time.Duration(st.NS)})
	}

	if snap.PriceCells, err = restorePriceCells(aux[statePriceCells]); err != nil {
		return nil, err
	}
	if snap.prices, err = newPriceTable(snap.PriceCells); err != nil {
		return nil, err
	}
	if snap.Delegations, err = restoreDelegations(aux[stateDelegs]); err != nil {
		return nil, err
	}
	// Generations persisted before as-of serving lack the temporal state.
	// Failing here sends warm start to a cold build (which re-persists a
	// complete generation), fails an adoption, and answers a ?gen= pin
	// with the load error.
	data, ok := aux[stateTemporal]
	if !ok {
		return nil, fmt.Errorf("serve: restore: missing %s state", stateTemporal)
	}
	if snap.Temporal, err = temporal.Restore(data); err != nil {
		return nil, fmt.Errorf("serve: restore temporal index: %w", err)
	}
	snap.eventRows = newEventRows(snap.Temporal)
	return snap, nil
}

// restorePriceCells decodes the auxiliary price-cell state.
func restorePriceCells(data []byte) ([]market.PriceCell, error) {
	if data == nil {
		return nil, fmt.Errorf("serve: restore: missing %s state", statePriceCells)
	}
	var cells []statePriceCell
	if err := json.Unmarshal(data, &cells); err != nil {
		return nil, fmt.Errorf("serve: restore price cells: %w", err)
	}
	out := make([]market.PriceCell, 0, len(cells))
	for i, c := range cells {
		q, err := parseQuarter(c.Quarter)
		if err != nil {
			return nil, fmt.Errorf("serve: restore price cell %d: %w", i, err)
		}
		rir, err := registry.ParseRIR(c.Region)
		if err != nil {
			return nil, fmt.Errorf("serve: restore price cell %d: %w", i, err)
		}
		out = append(out, market.PriceCell{
			Bits: c.Bits, Region: rir, Quarter: q,
			Box: stats.BoxPlot{
				N: c.N, Min: c.Min, Q1: c.Q1, Median: c.Median,
				Q3: c.Q3, Max: c.Max, Mean: c.Mean,
				LowFence: c.LowFence, HiFence: c.HiFence, Outliers: c.Outliers,
			},
		})
	}
	return out, nil
}

// restoreDelegations decodes the auxiliary delegation state, stored in
// the index's own order.
func restoreDelegations(data []byte) (*DelegationIndex, error) {
	if data == nil {
		return nil, fmt.Errorf("serve: restore: missing %s state", stateDelegs)
	}
	var doc stateDelegationDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("serve: restore delegations: %w", err)
	}
	ds := make([]delegation.Delegation, 0, len(doc.Delegations))
	for i, d := range doc.Delegations {
		parent, err := netblock.ParsePrefix(d.Parent)
		if err != nil {
			return nil, fmt.Errorf("serve: restore delegation %d: %w", i, err)
		}
		child, err := netblock.ParsePrefix(d.Child)
		if err != nil {
			return nil, fmt.Errorf("serve: restore delegation %d: %w", i, err)
		}
		ds = append(ds, delegation.Delegation{
			Parent: parent, Child: child,
			From: delegation.ASN(d.From), To: delegation.ASN(d.To),
		})
	}
	return newDelegationIndex(doc.Date, ds), nil
}
