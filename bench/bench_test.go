package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gncg/internal/gen"
	"gncg/internal/metric"
)

// The tests run from bench/, one level below the repository root.
const repoRoot = ".."

func init() { out = io.Discard }

func TestTimedSpaceKeepsCapabilities(t *testing.T) {
	for _, raw := range []metric.Space{gen.Points(3, 40, 2, 100, 2), gen.Tree(3, 40, 1, 6)} {
		wrapped := newTracer().wrapSpace(raw)
		if fmt.Sprintf("%T", wrapped) == fmt.Sprintf("%T", raw) {
			t.Fatalf("%T was not wrapped", raw)
		}
		caps := []struct {
			name string
			has  func(metric.Space) bool
		}{
			{"Classifier", func(s metric.Space) bool { _, ok := s.(metric.Classifier); return ok }},
			{"CandidateSource", func(s metric.Space) bool { _, ok := s.(metric.CandidateSource); return ok }},
			{"Dense", func(s metric.Space) bool { _, ok := s.(metric.Dense); return ok }},
			{"FinitePairer", func(s metric.Space) bool { _, ok := s.(metric.FinitePairer); return ok }},
		}
		for _, c := range caps {
			if c.has(raw) != c.has(wrapped) {
				t.Errorf("%T: %s capability %v, wrapped %v", raw, c.name, c.has(raw), c.has(wrapped))
			}
		}
		rs, ws := raw.(metric.CandidateSource), wrapped.(metric.CandidateSource)
		for u := 0; u < raw.Size(); u++ {
			if a, b := rs.AppendWithin(u, 30, nil), ws.AppendWithin(u, 30, nil); !slices.Equal(a, b) {
				t.Fatalf("%T: AppendWithin(%d) = %v, wrapped %v", raw, u, a, b)
			}
			if a, b := rs.NearestOtherDist(u), ws.NearestOtherDist(u); a != b {
				t.Fatalf("%T: NearestOtherDist(%d) = %v, wrapped %v", raw, u, a, b)
			}
		}
	}
}

func TestTracedDigestsEqualUntraced(t *testing.T) {
	for _, w := range dynSpecs {
		for seed := int64(1); seed <= 3; seed++ {
			plain, s := w.play(seed, 60, nil)
			ck := &checks{}
			w.check(plain, s, true, ck)
			if ck.failed > 0 {
				t.Fatalf("%s seed %d: %d of %d checks failed", w.name, seed, ck.failed, ck.attempted)
			}
			tr := newTracer()
			traced, _ := w.play(seed, 60, tr)
			if plain.digest != traced.digest {
				t.Errorf("%s seed %d: traced digest %016x, untraced %016x", w.name, seed, traced.digest, plain.digest)
			}
			if len(tr.snapshot()) == 0 {
				t.Errorf("%s: traced play recorded no spans", w.name)
			}
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		children []span
		want     time.Duration
	}{
		{nil, 100},
		{[]span{{Start: 10, End: 30}}, 80},
		// Overlapping concurrent children count once.
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 25, End: 35}}, 60},
		// Children are clipped to the parent; one outside it is ignored.
		{[]span{{Start: -5, End: 5}, {Start: 90, End: 120}, {Start: 200, End: 300}}, 85},
		{[]span{{Start: 0, End: 100}, {Start: 40, End: 60}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("selfTime(%v) = %v, want %v", tc.children, got, tc.want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs            []float64
		p25, p50, p75 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		got := [3]float64{quantile(tc.xs, 0.25), quantile(tc.xs, 0.5), quantile(tc.xs, 0.75)}
		if want := [3]float64{tc.p25, tc.p50, tc.p75}; got != want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, want)
		}
	}
	if got := median([]time.Duration{3, 1, 2}, func(d time.Duration) float64 { return float64(d) }); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestExpectedSweep(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join(repoRoot, goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	same, all, err := expectedSweep(golden, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(same, golden) {
		t.Fatalf("skipping nothing does not reproduce %s: %s", goldenPath, firstDiff(same, golden))
	}
	want, exps, err := expectedSweep(golden, sweepSkip)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(all)-1 || strings.Contains(","+strings.Join(exps, ",")+",", ",equilibrium,") {
		t.Fatalf("experiments %v, from %v", exps, all)
	}
	seqs := regexp.MustCompile(`(?m)^    \{"seq": (\d+), "experiment": "([^"]*)"`).FindAllSubmatch(want, -1)
	for i, m := range seqs {
		if string(m[1]) != strconv.Itoa(i) || sweepSkip[string(m[2])] {
			t.Fatalf("cell %d: seq %s experiment %s", i, m[1], m[2])
		}
	}
	if len(seqs) != 119 {
		t.Fatalf("%d cells, want 119", len(seqs))
	}
}

func TestCoordProxyPairsLeasesWithReports(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/lease":
			w.Write([]byte(`{"id": 7, "cells": [1, 2], "ttl_ms": 60000}`))
		default:
			w.Write([]byte(`{"ok": true}`))
		}
	}))
	defer backend.Close()
	tr := newTracer()
	root := tr.begin("sweep")
	p, err := startProxy(strings.TrimPrefix(backend.URL, "http://"), tr)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) {
		resp, err := http.Post("http://"+p.addr+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	post("/lease", `{"shard": "s", "max": 0}`)
	time.Sleep(5 * time.Millisecond)
	post("/report", `{"id": 7, "shard": "s", "cells": []}`)
	p.close()
	tr.end(root, nil)
	if p.leases != 1 || len(p.rtt["/lease"]) != 1 || len(p.rtt["/report"]) != 1 {
		t.Fatalf("leases %d, rtt %v", p.leases, p.rtt)
	}
	if p.leaseMax < 5*time.Millisecond {
		t.Fatalf("lease held %v, want at least 5ms", p.leaseMax)
	}
	m := sweepLayers([]sweepRun{{wall: time.Second, cells: 2, proxy: p}})
	if m["coord.leases"] != 1 || m["sweep.lease_max_s"] <= 0 || m["coord.busy_s"] <= 0 {
		t.Fatalf("layers %v", m)
	}
	if _, err := assemble(m, true, &checks{}); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range tr.snapshot() {
		if s.Parent != root && s.ID != root {
			t.Errorf("span %s has parent %d, want %d", s.Name, s.Parent, root)
		}
		names[s.Name] = true
	}
	for _, n := range []string{"coord/lease", "coord/report", "sweep.lease"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

// TestBenchmarkFileMatchesOutput checks BENCHMARK.json against the
// metrics a run prints, end to end and traced.
func TestBenchmarkFileMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench has %v", names, workloads())
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(set.declared) != len(set.defs) {
			t.Fatalf("BENCHMARK.json declares %d metrics, bench has %d", len(set.declared), len(set.defs))
		}
		for i, d := range set.declared {
			if !valid.MatchString(d.Name) {
				t.Errorf("invalid metric name %q", d.Name)
			}
			if d.Name != set.defs[i].name || d.Unit != set.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, bench %s %s", i, d.Name, d.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
	}

	w := dynSpecs[1]
	w.n = 60
	for _, trace := range []bool{false, true} {
		cfg := config{workload: w.name, seed: 1, trace: trace, root: repoRoot, buildDir: t.TempDir()}
		ck := &checks{}
		m, err := runDynamics(w, cfg, ck)
		if err != nil {
			t.Fatal(err)
		}
		res, err := assemble(m, trace, ck)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("trace %v: %d of %d checks failed", trace, res.Failed, res.Attempted)
		}
		var buf bytes.Buffer
		if err := printResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		printed := buf.String()
		defs := doc.EndToEnd
		if trace {
			defs = doc.PerLayer
		}
		for _, d := range defs {
			if !strings.Contains(printed, "\n"+d.Name+" ") && !strings.HasPrefix(printed, d.Name+" ") {
				t.Errorf("trace %v: %s not printed", trace, d.Name)
			}
		}
		lines := strings.Split(strings.TrimSpace(printed), "\n")
		var last result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(defs) {
			t.Fatalf("trace %v: last line %q: %v", trace, lines[len(lines)-1], err)
		}
	}
}
