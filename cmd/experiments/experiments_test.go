package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gncg/internal/dynamics"
	"gncg/internal/game"
	"gncg/internal/sweep"
)

// TestMain doubles as the experiments binary: serve launches its local
// `work` shards by re-executing os.Executable(), which under `go test` is
// the test binary, so the child-mode env var routes those subprocesses
// into main().
func TestMain(m *testing.M) {
	if os.Getenv("GNCG_EXPERIMENTS_CHILD") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// cheapSelection is a fast but representative slice of the registry: a
// scalar experiment, a seeds ladder, and an alpha×n grid.
const cheapSelection = "fig1,thm20,fig9"

func selectCheap(t *testing.T) []sweep.Experiment {
	t.Helper()
	ensureRegistered()
	exps, err := sweep.Select(cheapSelection)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 3 {
		t.Fatalf("selected %d experiments, want 3", len(exps))
	}
	return exps
}

// TestRegistryComplete: every experiment of the paper's reproduction is
// registered and selectable, and tag selection works on the real
// registry.
func TestRegistryComplete(t *testing.T) {
	ensureRegistered()
	want := []string{
		"fig1", "thm1", "lemmas", "approx", "fig2", "thm5", "fig3", "thm9",
		"thm10", "thm11", "thm12", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "thm18", "fig10", "thm20", "conj1", "ncg", "oneinf",
		"empirical", "pos", "table1", "scale", "scale_greedy", "equilibrium",
		"equilibrium_xl", "cycle_census", "model_compare",
	}
	if got := len(sweep.All()); got != len(want) {
		t.Fatalf("registry has %d experiments, want %d", got, len(want))
	}
	for _, name := range want {
		if _, ok := sweep.Lookup(name); !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	poaExps, err := sweep.Select("poa")
	if err != nil {
		t.Fatal(err)
	}
	if len(poaExps) < 5 {
		t.Fatalf("tag 'poa' selects only %d experiments", len(poaExps))
	}
}

// TestExperimentsShardDeterminism runs real (cheap) experiments sharded
// and unsharded and requires byte-identical merged JSON — the engine
// contract exercised end-to-end through actual paper reproductions.
func TestExperimentsShardDeterminism(t *testing.T) {
	exps := selectCheap(t)
	ref, err := sweep.Run(exps, sweep.Config{Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.FirstErr(); err != nil {
		t.Fatal(err)
	}
	var refJSON bytes.Buffer
	if err := ref.EncodeJSON(&refJSON); err != nil {
		t.Fatal(err)
	}
	var parts []*sweep.ResultSet
	for shard := 0; shard < 2; shard++ {
		rs, err := sweep.Run(exps, sweep.Config{Quick: true, Shards: 2, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, rs)
	}
	mergedSet, err := sweep.Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	var merged bytes.Buffer
	if err := mergedSet.EncodeJSON(&merged); err != nil {
		t.Fatal(err)
	}
	if merged.String() != refJSON.String() {
		t.Fatal("merged 2-shard JSON differs from unsharded run")
	}
}

// TestMergeSubcommandRoundTrip drives the merge subcommand end-to-end on
// real experiments: K shard JSON files merged through mergeMain must be
// byte-identical to the unsharded run's output.
func TestMergeSubcommandRoundTrip(t *testing.T) {
	exps := selectCheap(t)
	ref, err := sweep.Run(exps, sweep.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var refJSON, refCSV bytes.Buffer
	if err := ref.EncodeJSON(&refJSON); err != nil {
		t.Fatal(err)
	}
	if err := ref.EncodeCSV(&refCSV); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const shards = 3
	var files []string
	for shard := 0; shard < shards; shard++ {
		rs, err := sweep.Run(exps, sweep.Config{Quick: true, Shards: shards, Shard: shard})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard%d.json", shard))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.EncodeJSON(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}
	// Pass shards out of order and one duplicated: Merge dedups by seq.
	args := []string{
		"-out", filepath.Join(dir, "merged.json"),
		"-csv", filepath.Join(dir, "merged.csv"),
		files[2], files[0], files[1], files[0],
	}
	var stderr bytes.Buffer
	if code := mergeMain(args, &stderr); code != 0 {
		t.Fatalf("mergeMain exited %d: %s", code, stderr.String())
	}
	gotJSON, err := os.ReadFile(filepath.Join(dir, "merged.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != refJSON.String() {
		t.Fatal("merged JSON differs from unsharded run")
	}
	gotCSV, err := os.ReadFile(filepath.Join(dir, "merged.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != refCSV.String() {
		t.Fatal("merged CSV differs from unsharded run")
	}
}

func TestMergeSubcommandErrors(t *testing.T) {
	var stderr bytes.Buffer
	if code := mergeMain(nil, &stderr); code != 2 {
		t.Fatalf("merge with no inputs exited %d, want 2", code)
	}
	stderr.Reset()
	if code := mergeMain([]string{"no-such-file.json"}, &stderr); code != 1 {
		t.Fatalf("merge of missing file exited %d, want 1", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := mergeMain([]string{bad}, &stderr); code != 1 {
		t.Fatalf("merge of invalid file exited %d, want 1", code)
	}
}

// TestCacheChurnProbeDeterministic: the probe that records cache
// counters in full-mode equilibrium cells feeds the nightly
// byte-identity gate, so it must be a pure function of the converged
// state — repeated probes (fresh clone each) agree exactly — and must
// actually exercise the counters it reports.
func TestCacheChurnProbeDeterministic(t *testing.T) {
	h, alpha, start := equilibriumConfig("l2", 250)
	g := game.New(h, alpha)
	s := game.NewState(g, start)
	res := dynamics.RunToConvergence(s, dynamics.GreedyMover, dynamics.RoundRobin{},
		ladderBudget(250))
	if res.Outcome != dynamics.Converged {
		t.Fatalf("l2 star rung did not converge: %v", res.Outcome)
	}
	a := cacheChurnProbe(s)
	b := cacheChurnProbe(s)
	if a != b {
		t.Fatalf("probe not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Hits == 0 || a.Misses == 0 || a.BatchRepairs == 0 {
		t.Fatalf("probe left counters unexercised: %+v", a)
	}
	if a.Capacity != 250 {
		t.Fatalf("probe capacity = %d, want 250 (cap == n caches everything)", a.Capacity)
	}
}

// TestExperimentRecordsSane spot-checks the content of a converted
// experiment: thm20's closed-form PASS verdicts must survive the sweep
// refactor.
func TestExperimentRecordsSane(t *testing.T) {
	ensureRegistered()
	e, ok := sweep.Lookup("thm20")
	if !ok {
		t.Fatal("thm20 missing")
	}
	rs, err := sweep.Run([]sweep.Experiment{e}, sweep.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != 4 {
		t.Fatalf("thm20 has %d cells, want 4", len(rs.Cells))
	}
	for _, c := range rs.Cells {
		if len(c.Records) != 1 {
			t.Fatalf("cell %d has %d records", c.Cell.Index, len(c.Records))
		}
		for _, key := range []string{"ne_exact", "opt_exact"} {
			v, ok := c.Records[0].Get(key)
			if !ok || v != "PASS" {
				t.Fatalf("cell alpha=%v: %s = %v, want PASS", c.Cell.Float("alpha"), key, v)
			}
		}
	}
}

// TestGoldenQuickSweep pins the quick sweep's entire JSON output to a
// checked-in golden file, cell by cell. The golden's cells for the
// pre-rules-layer experiments are byte-identical to the output of the
// binary built before game.Rules existed (verified offline when the
// golden was minted), so this test is the executable statement of the
// refactor's core contract: the default "sum" rules perform the exact
// same float operations in the exact same order as the old hardwired
// cost code, for every registered experiment. model_compare's cells
// ride in the same golden, pinning the non-default models too.
//
// If a deliberate experiment change breaks this test, regenerate with
//
//	go run ./cmd/experiments -quick -tables=false -out cmd/experiments/testdata/golden_quick.json
//
// and say so in the commit message — an unexplained diff here is a cost
// regression, not a golden refresh.
func TestGoldenQuickSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep is too slow for -short")
	}
	ensureRegistered()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.DecodeJSON(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Run(sweep.All(), sweep.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("quick sweep produced %d cells, golden has %d", len(got.Cells), len(want.Cells))
	}
	mismatches := 0
	for i := range want.Cells {
		w, g := sweep.CellJSON(want.Cells[i]), sweep.CellJSON(got.Cells[i])
		if !bytes.Equal(w, g) {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("cell %d (%s) drifted from golden:\n  want %s\n  got  %s",
					want.Cells[i].Seq, want.Cells[i].Experiment, w, g)
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("... and %d more drifted cells", mismatches-5)
	}
	// The whole encoded stream must match too: cell-by-cell identity
	// plus byte-identical framing is what the sharding gate relies on.
	var buf bytes.Buffer
	if err := got.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) && mismatches == 0 {
		t.Error("cells match but encoded stream differs from golden (framing drift)")
	}
}

// TestGoldenLowerBoundsCertify checks the certificate property of every
// opt_lb in both golden files: a certified OPT lower bound is positive
// and never exceeds the social cost of the state it bounds (whose OPT it
// undershoots), up to float noise — so every poa_vs_lb is at least 1.
func TestGoldenLowerBoundsCertify(t *testing.T) {
	quick, err := os.ReadFile(filepath.Join("testdata", "golden_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sweep.DecodeJSON(bytes.NewReader(quick))
	if err != nil {
		t.Fatal(err)
	}
	cells := rs.Cells
	full, err := os.ReadFile(filepath.Join("testdata", "golden_full_cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n")) {
		c, err := sweep.DecodeCellJSON(line)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	number := func(v any) float64 {
		switch x := v.(type) {
		case int:
			return float64(x)
		case float64:
			return x
		}
		t.Fatalf("non-numeric value %v", v)
		return 0
	}
	checked := 0
	for _, c := range cells {
		for _, r := range c.Records {
			lbv, ok := r.Get("opt_lb")
			if !ok {
				continue
			}
			costv, ok := r.Get("social_cost")
			if !ok {
				t.Fatalf("%s cell %d: opt_lb without social_cost", c.Experiment, c.Seq)
			}
			lb, cost := number(lbv), number(costv)
			if !(lb > 0 && lb <= cost*(1+1e-12)) {
				t.Errorf("%s cell %d: opt_lb %v, social_cost %v: want 0 < opt_lb <= social_cost", c.Experiment, c.Seq, lb, cost)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no golden record carries opt_lb")
	}
	t.Logf("%d golden records certify", checked)
}

// goldenFullCells are the full-mode convergence cells pinned by
// TestGoldenFullCells: the exact-verify and sampled branches of the
// equilibrium ladder, and both host classes of equilibrium_xl. The n
// values are off the registered ladders so the cells stay cheap; Index
// seeds each cell's RNG (the sampled branch draws its agents from it).
var goldenFullCells = []struct {
	exp  string
	host string
	n    int
}{
	{"equilibrium", "l2", 250},
	{"equilibrium", "tree", 250},
	{"equilibrium", "onetwo", 250},
	{"equilibrium", "l2", 2600},
	{"equilibrium_xl", "l2", 400},
	{"equilibrium_xl", "tree", 400},
}

// TestGoldenFullCells pins the full-mode encoding of the convergence
// cells — column order included — which the quick golden cannot see:
// full mode appends the scan, cache and verification telemetry. The
// wall-clock verify_ms and the GOMAXPROCS-dependent verify_workers are
// masked. Each line of testdata/golden_full_cells.jsonl is one cell's
// sweep.CellJSON; a deliberate change regenerates it from the lines
// this test prints on mismatch.
func TestGoldenFullCells(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode convergence cells are too slow for -short")
	}
	ensureRegistered()
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_full_cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	if len(want) != len(goldenFullCells) {
		t.Fatalf("golden has %d cells, want %d", len(want), len(goldenFullCells))
	}
	for i, c := range goldenFullCells {
		e, ok := sweep.Lookup(c.exp)
		if !ok {
			t.Fatalf("%s missing", c.exp)
		}
		p := sweep.Params{Experiment: c.exp, Index: i, Values: []sweep.AxisValue{
			{Axis: "host", Value: c.host}, {Axis: "n", Value: c.n}}}
		recs := e.Run(p)
		for _, r := range recs {
			for fi, f := range r.Fields {
				if f.Key == "verify_ms" || f.Key == "verify_workers" {
					r.Fields[fi].Value = "masked"
				}
			}
		}
		got := sweep.CellJSON(sweep.CellResult{Seq: i, Experiment: c.exp, Cell: p, Records: recs})
		if !bytes.Equal(got, want[i]) {
			t.Errorf("%s %s n=%d drifted from golden:\n  want %s\n  got  %s", c.exp, c.host, c.n, want[i], got)
		}
	}
}
