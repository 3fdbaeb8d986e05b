package serve

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"ipv4market/internal/core"
	"ipv4market/internal/delegation"
	"ipv4market/internal/market"
	"ipv4market/internal/parallel"
	"ipv4market/internal/simulation"
	"ipv4market/internal/temporal"
)

// Snapshot is one immutable, fully materialized serving state: every
// artifact of the study precomputed and pre-encoded. Nothing in a
// Snapshot mutates after BuildSnapshotOpts returns, so a Snapshot may be
// read by any number of goroutines while a replacement is built.
type Snapshot struct {
	Cfg       simulation.Config
	Seq       uint64 // rebuild sequence number, assigned by the Server
	BuiltAt   time.Time
	BuildTime time.Duration

	// Gen is the durable store generation this snapshot was persisted as
	// (or restored from); 0 when no store is configured. Source records
	// how the snapshot came to be: built in-process, or restored from the
	// store (at warm start, on a follower's adoption, or for a ?gen= pin).
	Gen    uint64
	Source Source

	// Workers is the build-stage concurrency the snapshot was built
	// with; Stages records each stage's wall-clock time (the "study"
	// stage runs alone, the artifact stages run concurrently, so stage
	// times overlap and do not sum to BuildTime).
	Workers int
	Stages  []StageTiming

	// PriceCells and Delegations are the query state behind filtered
	// /v1/prices and /v1/delegations requests; both round-trip through
	// the store as _state/ artifacts.
	PriceCells  []market.PriceCell
	Delegations *DelegationIndex

	// Temporal is the as-of index behind /v1/asof: the world's event
	// history (delegations, transfers, holder changes, quarterly price
	// state) materialized for point-in-time lookups. Like every other
	// snapshot field it is immutable once built, and it round-trips
	// through the store as a _state/ artifact so warm starts and
	// followers answer /v1/asof byte-identically.
	Temporal *temporal.Index

	// eventRows is Temporal's rendered event rows behind /v1/asof/diff,
	// set wherever Temporal is and filled on demand (eventrows.go).
	eventRows *eventRows

	// static maps endpoint keys ("table1", "fig1", ...) to their
	// pre-encoded bodies.
	static map[string]*artifact

	// prices is the columnar layout of PriceCells, built alongside them
	// (and rebuilt on restore) so filtered /v1/prices queries slice
	// column views instead of re-marshalling rows.
	prices *priceTable

	// transfers is how many transfers the snapshot's world holds.
	transfers int
}

// StageTiming is one build stage's wall-clock cost, exported on /varz.
type StageTiming struct {
	Name     string
	Duration time.Duration
}

// Source says where a snapshot's bytes came from.
type Source string

const (
	// SourceBuild marks a snapshot built in-process from the simulation.
	SourceBuild Source = "build"
	// SourceStore marks a snapshot restored from the durable store at
	// warm start; its artifacts are byte-identical to the build that
	// persisted them.
	SourceStore Source = "store"
)

// TransferTotal reports how many transfers the snapshot's world holds.
func (s *Snapshot) TransferTotal() int { return s.transfers }

// BuildOptions tunes a snapshot build. The zero value uses NumCPU
// workers — build as fast as the hardware allows.
type BuildOptions struct {
	// Workers caps how many build stages run concurrently (<= 0:
	// NumCPU). Any worker count produces byte-identical artifacts;
	// TestBuildSnapshotDeterministic enforces it.
	Workers int
}

func (o BuildOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// leasingObservationEnd is the last advertised-price observation date of
// the paper (§5); the /v1/leasing summary is evaluated there regardless
// of the configured routing window, because the price book is calendar-
// fixed.
var leasingObservationEnd = time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)

// buildStage is one node of the artifact DAG: a named unit of work that
// computes its study results and pre-encodes the artifacts derived from
// them. Stages listed in snapshotStages are mutually independent — each
// writes only the snapshot fields it owns (if any; most keep their
// results as locals) and returns only its own artifacts
// — so they run concurrently after the study stage; results are merged
// in definition order, never completion order.
type buildStage struct {
	name string
	run  func(snap *Snapshot, study *core.Study) ([]keyedArtifact, error)
}

// keyedArtifact pairs an endpoint key with its pre-encoded artifact.
type keyedArtifact struct {
	key string
	art *artifact
}

// one wraps a single computed artifact with its encode error context.
func one(key string, view any, csvFn func(io.Writer) error) ([]keyedArtifact, error) {
	art, err := newArtifact(view, csvFn)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	return []keyedArtifact{{key, art}}, nil
}

// snapshotStages is the artifact DAG below the study stage. Every stage
// depends only on the read-only study and the snapshot's config, so the
// build runs them all concurrently, bounded by the worker budget.
var snapshotStages = []buildStage{
	{"table1", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		rows := study.Table1()
		return one("table1", viewTable1(rows), table1CSV(rows))
	}},
	{"prices", func(snap *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		snap.PriceCells = study.Figure1()
		var err error
		if snap.prices, err = newPriceTable(snap.PriceCells); err != nil {
			return nil, err
		}
		// fig1 and the unfiltered /v1/prices serve the same bytes, so
		// they share one artifact (and one ETag): the price table's
		// render with no filter, whose CSV is Figure 1's.
		art := snap.prices.render(priceFilter{})
		return []keyedArtifact{{"fig1", art}, {"prices", art}}, nil
	}},
	{"transfer_series", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		counts := study.Figure2()
		return one("fig2", viewTransferSeries(counts), func(w io.Writer) error { return core.WriteFigure2CSV(w, counts) })
	}},
	{"interrir_flows", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		flows := study.Figure3()
		return one("fig3", viewInterRIRFlows(flows), func(w io.Writer) error { return core.WriteFigure3CSV(w, flows) })
	}},
	{"leasing_prices", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		points := study.Figure4()
		return one("fig4", viewLeasingPoints(points), func(w io.Writer) error { return core.WriteFigure4CSV(w, points) })
	}},
	{"transfers", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		body, err := transfersBody(study.World.Registry)
		if err != nil {
			return nil, fmt.Errorf("transfers: serve: encode: %w", err)
		}
		return []keyedArtifact{{"transfers", &artifact{json: body, jsonETag: etagOf(body)}}}, nil
	}},
	{"headline", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		h, err := study.Headline()
		if err != nil {
			return nil, err
		}
		return one("headline", viewHeadline(h), nil)
	}},
	{"leasing", func(*Snapshot, *core.Study) ([]keyedArtifact, error) {
		leasing, err := market.SnapshotAt(market.PaperProviders(), leasingObservationEnd)
		if err != nil {
			return nil, err
		}
		return one("leasing", viewLeasing(leasing, market.PriceChanges(market.PaperProviders())), nil)
	}},
	{"delegations", func(snap *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		// Extended inference on the window's final day, whose survey
		// the utilization stage's last quarter reads too: the study
		// draws it once for both.
		date := snap.Cfg.RoutingStart.AddDate(0, 0, snap.Cfg.RoutingDays-1)
		inf := delegation.DefaultInference(study.World.OrgSeries)
		snap.Delegations = newDelegationIndex(date, inf.FromSurvey(date, study.LastDaySurvey()))
		return one("delegations", viewDelegationSummary(snap.Delegations), nil)
	}},
	{"utilization", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		// The per-quarter survey sampling runs on one worker inside
		// this stage: the stage DAG is the build's only fan-out, and a
		// nested one would oversubscribe its worker budget without
		// changing the bytes. At DefaultConfig nine of its ten quarters
		// refill one survey, under 2ms each; the last reads the study's
		// survey of the window's last day, which the delegations stage
		// shares. At one worker the stage takes
		// 14–24ms, the longest artifact stage by about twice (temporal
		// takes 9–10ms, every other stage 6ms or less), so it alone
		// sets the multi-worker build's critical path after the study
		// stage.
		points, err := study.UtilizationWorkers(1)
		if err != nil {
			return nil, err
		}
		return one("utilization", viewUtilization(points), utilizationCSV(points))
	}},
	{"rpki", func(_ *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		res, err := study.RPKISeries()
		if err != nil {
			return nil, err
		}
		return one("rpki", viewRPKI(res), rpkiCSV(res))
	}},
	{"temporal", func(snap *Snapshot, study *core.Study) ([]keyedArtifact, error) {
		// The as-of index has no static artifact of its own — every
		// /v1/asof response is computed per request, point and timeline
		// answers query-cached, diffs from the event-row table. The index
		// itself rides to the store as _state/temporal.
		ix, err := temporal.New(temporalInput(snap.Cfg, study.World))
		if err != nil {
			return nil, err
		}
		snap.Temporal, snap.eventRows = ix, newEventRows(ix)
		return nil, nil
	}},
}

// newStudy is the study stage: every artifact stage reads its result.
var newStudy = core.NewStudy

// supervised runs fn as parallel.Map's one item, so a panic in it
// returns as an error, with its stack, instead of killing the process.
func supervised[T any](fn func() (T, error)) (T, error) {
	out, err := parallel.Map(context.Background(), 1, 1, func(context.Context, int) (T, error) { return fn() })
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// BuildSnapshotOpts constructs the study for cfg and materializes every
// served artifact as a DAG of build stages: the study build runs first
// (every artifact derives from it), then the artifact stages fan out
// across the worker budget. This is the only place the serving layer
// runs study pipelines — and the only place the simulation's randomness
// executes — so handlers never recompute anything, and the stage DAG is
// the build's only fan-out. Determinism contract: results are merged by
// stage index, so any worker count — including 1 — produces
// byte-identical artifacts and ETags. A failing or panicking stage —
// the study stage included — is reported with the stage name, and an
// artifact stage's failure cancels its siblings.
func BuildSnapshotOpts(cfg simulation.Config, opts BuildOptions) (*Snapshot, error) {
	start := time.Now()
	workers := opts.workers()
	snap := &Snapshot{Cfg: cfg, BuiltAt: start, Workers: workers, Source: SourceBuild}
	if cfg.RoutingDays < 1 {
		return nil, fmt.Errorf("serve: empty routing window (RoutingDays=%d)", cfg.RoutingDays)
	}

	studyStart := time.Now()
	study, err := supervised(func() (*core.Study, error) { return newStudy(cfg) })
	if err != nil {
		return nil, fmt.Errorf("serve: build stage %q: %w", "study", err)
	}
	snap.Stages = append(snap.Stages, StageTiming{"study", time.Since(studyStart)})
	snap.transfers = study.World.Registry.NumTransfers()

	// Fan out the artifact stages. Each stage writes its own timing and
	// artifact slot (indexed by stage, so the merge below is
	// deterministic); the first failure cancels the remaining stages.
	durations := make([]time.Duration, len(snapshotStages))
	artifacts, err := parallel.Map(context.Background(), workers, len(snapshotStages),
		func(_ context.Context, i int) ([]keyedArtifact, error) {
			st := snapshotStages[i]
			stageStart := time.Now()
			defer func() {
				durations[i] = time.Since(stageStart)
				// Name the stage in a panic too: parallel.Map recovers
				// it into the build's error, with the original stack.
				if r := recover(); r != nil {
					panic(fmt.Sprintf("serve: build stage %q: %v", st.name, r)) //lint:ignore bannedcall re-raised with the stage name for parallel.Map to recover
				}
			}()
			arts, err := st.run(snap, study)
			if err != nil {
				return nil, fmt.Errorf("serve: build stage %q: %w", st.name, err)
			}
			return arts, nil
		})
	if err != nil {
		return nil, err
	}

	snap.static = make(map[string]*artifact, len(snapshotStages)+1)
	for i, st := range snapshotStages {
		snap.Stages = append(snap.Stages, StageTiming{st.name, durations[i]})
		for _, ka := range artifacts[i] {
			snap.static[ka.key] = ka.art
		}
	}
	snap.BuildTime = time.Since(start)
	return snap, nil
}

// staticArtifact returns the pre-encoded artifact for an endpoint key, if
// any.
func (s *Snapshot) staticArtifact(key string) (*artifact, bool) {
	art, ok := s.static[key]
	return art, ok
}

// Age returns how long ago the snapshot was built.
func (s *Snapshot) Age(now time.Time) time.Duration { return now.Sub(s.BuiltAt) }

// table1CSV renders the exhaustion timeline as CSV (the core package has
// renderers for the figures only).
func table1CSV(rows []core.Table1Row) func(io.Writer) error {
	return func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"rir", "down_to_last_block", "depleted", "phase_2020", "max_assignment_bits", "waiting_list"}); err != nil {
			return err
		}
		for _, r := range rows {
			err := cw.Write([]string{
				r.RIR.String(), fmtDate(r.DownToLastBlock), fmtDate(r.Depleted),
				r.Phase2020.String(), strconv.Itoa(r.MaxAssignment), strconv.Itoa(r.WaitingList),
			})
			if err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
}

// utilizationCSV renders the quarterly utilization series.
func utilizationCSV(points []core.UtilizationPoint) func(io.Writer) error {
	return func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"quarter", "date", "allocated", "routed", "active"}); err != nil {
			return err
		}
		for _, p := range points {
			err := cw.Write([]string{
				p.Quarter, fmtDate(p.Date),
				strconv.FormatUint(p.Allocated, 10),
				strconv.FormatUint(p.Routed, 10),
				strconv.FormatUint(p.Active, 10),
			})
			if err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
}

// rpkiCSV renders the bucketed RPKI observability series (the rule grid
// is JSON-only; the CSV carries the time series dashboards plot).
func rpkiCSV(res core.RPKISeriesResult) func(io.Writer) error {
	return func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"date", "days", "mean_present", "max_present", "churn", "mean_churn_per_day"}); err != nil {
			return err
		}
		f2 := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
		for _, b := range res.Buckets {
			err := cw.Write([]string{
				fmtDate(b.Date), strconv.Itoa(b.Days), f2(b.MeanPresent),
				strconv.Itoa(b.MaxPresent), strconv.Itoa(b.Churn), f2(b.MeanChurnDay),
			})
			if err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
}
