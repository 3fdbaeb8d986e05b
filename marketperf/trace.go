package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the benchmark: its name, the span that
// caused it (0 for a root), and its start and end as offsets from the
// run's start. Every span of a run shares the tracer's run id.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps a run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under parent and returns its id (0 when tracing is
// off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself, for
// calls too short to afford the lock twice.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed like spans. Overlapping children
// (concurrent work under one parent) are counted once, and a child's
// interval is clipped to its parent's.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[s.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var curLo, curHi time.Duration
		for k, v := range ivs {
			switch {
			case k == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			case v.hi > curHi:
				curHi = v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName groups the self times of every span by name.
func (t *tracer) selfByName() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	by := make(map[string][]time.Duration)
	for i, s := range t.spans {
		by[s.Name] = append(by[s.Name], self[i])
	}
	return by
}

// write saves the run's spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{t.run, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
