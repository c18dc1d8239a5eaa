package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gncg/internal/bitset"
	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/metric"
)

// span is one timed call across a layer boundary. Spans of one workload
// iteration share Run; Parent is 0 for an iteration's root span. Start
// and End are nanoseconds since the tracer was created.
type span struct {
	Run    int              `json:"run"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. The driving goroutine
// nests spans with begin/end; leaf spans may also come from other
// goroutines (verifier workers, proxy handlers) and attach to whatever
// span the driving goroutine has open. A nil *tracer records nothing, so
// untraced runs call the same code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	run   int
	cur   int // innermost span open on the driving goroutine
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// setRun starts a new iteration: later spans carry run id r.
func (t *tracer) setRun(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = r
	t.mu.Unlock()
}

// begin opens a span on the driving goroutine and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.run, ID: id, Parent: t.cur, Name: name, Start: now})
	t.cur = id
	return id
}

// end closes span id with optional counts.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Counts = now, counts
	t.cur = s.Parent
}

// leaf records a finished span [start, end) under the open span.
func (t *tracer) leaf(name string, start, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: t.cur, Name: name,
		Start: t.since(start), End: t.since(end), Counts: counts})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the span's duration minus the part of its interval that its
// children cover. Children may overlap (concurrent workers), so the
// covered part is the length of the union of their intervals, clipped to
// the parent's.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, reach := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= reach {
			continue
		}
		covered += v.hi - max(v.lo, reach)
		reach = v.hi
	}
	return parent.dur() - time.Duration(covered)
}

// wrapSpace returns sp behind a timing wrapper when it is a generated
// point or tree space; every capability of the wrapped space is promoted
// unchanged, only the candidate queries are timed.
func (t *tracer) wrapSpace(sp metric.Space) metric.Space {
	switch s := sp.(type) {
	case *metric.Points:
		return timedPoints{s, t}
	case *metric.TreeMetric:
		return timedTree{s, t}
	}
	return sp
}

type timedPoints struct {
	*metric.Points
	tr *tracer
}

func (p timedPoints) AppendWithin(u int, r float64, buf []int) []int {
	return p.tr.within(u, r, buf, p.Points.AppendWithin)
}

func (p timedPoints) NearestOtherDist(u int) float64 {
	return p.tr.nearest(u, p.Points.NearestOtherDist)
}

type timedTree struct {
	*metric.TreeMetric
	tr *tracer
}

func (p timedTree) AppendWithin(u int, r float64, buf []int) []int {
	return p.tr.within(u, r, buf, p.TreeMetric.AppendWithin)
}

func (p timedTree) NearestOtherDist(u int) float64 {
	return p.tr.nearest(u, p.TreeMetric.NearestOtherDist)
}

func (t *tracer) within(u int, r float64, buf []int, f func(int, float64, []int) []int) []int {
	start := time.Now()
	first := len(buf)
	buf = f(u, r, buf)
	t.leaf("metric.within", start, time.Now(), map[string]int64{"returned": int64(len(buf) - first)})
	return buf
}

func (t *tracer) nearest(u int, f func(int) float64) float64 {
	start := time.Now()
	d := f(u)
	t.leaf("metric.nearest", start, time.Now(), nil)
	return d
}

// wrapMover times each best-response scan as a game.scan span; candidate
// queries made during the scan become its children.
func (t *tracer) wrapMover(m dynamics.Mover) dynamics.Mover {
	return func(s *game.State, u int) (bitset.Set, bool) {
		id := t.begin("game.scan")
		strat, ok := m(s, u)
		t.end(id, nil)
		return strat, ok
	}
}

// traceFile is where a traced run writes its spans.
func traceFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
}
