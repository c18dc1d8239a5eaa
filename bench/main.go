// Command gncgbench is the repository benchmark. One invocation runs one
// workload for a measuring window, checks every output, prints each
// metric by name with its unit, and ends its standard output with one
// JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The metrics are the end-to-end set of BENCHMARK.json, or its per-layer
// set under --trace 1, which also writes the run's spans as JSON lines.
// Run it from the repository root through run.sh, which builds this
// binary and the experiments binary it drives:
//
//	sh bench/run.sh --workload rewire_tree --seed 13 --seconds 20 --trace 0
//
// With --ledger FILE it instead runs every workload --runs times as child
// processes, round-robin, plus one traced run each, and writes the
// medians and quartiles to FILE. README.md describes the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the engine sees, in BENCHMARK.json
// order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced per-layer metrics, in BENCHMARK.json order.
// A layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"dynamics.busy_s", "s"}, {"dynamics.self_s", "s"}, {"dynamics.rounds", "count"},
	{"dynamics.moves", "count"}, {"dynamics.scans", "count"}, {"dynamics.improving_ratio", "ratio"},

	{"game.scan.busy_s", "s"}, {"game.scan.p50_us", "us"}, {"game.scan.p99_us", "us"},
	{"game.scan.candidate_scans", "count"}, {"game.scan.candidates_scanned", "count"},
	{"game.scan.excess_skips", "count"}, {"game.scan.exhaustive_scans", "count"},
	{"game.scan.fallbacks", "count"}, {"game.scan.enumerated_frac", "ratio"},

	{"game.cache.hits", "count"}, {"game.cache.misses", "count"}, {"game.cache.batch_repairs", "count"},
	{"game.cache.repair_refusals", "count"}, {"game.cache.evictions", "count"},
	{"game.cache.hit_ratio", "ratio"}, {"game.cache.refusal_ratio", "ratio"},

	{"game.verify.busy_s", "s"}, {"game.verify.cert_skipped", "count"}, {"game.verify.scanned", "count"},
	{"game.verify.cert_skip_ratio", "ratio"}, {"game.verify.workers", "count"},
	{"game.verify.exact_sample_s", "s"},

	{"metric.within.calls", "count"}, {"metric.within.busy_s", "s"}, {"metric.within.verify_busy_s", "s"},
	{"metric.within.p99_us", "us"}, {"metric.within.returned_mean", "count"},
	{"metric.nearest.calls", "count"}, {"metric.nearest.busy_s", "s"},

	{"opt.lower_bound_s", "s"},

	{"sweep.cells", "count"}, {"sweep.cell_errors", "count"}, {"sweep.lease_max_s", "s"},
	{"sweep.tail_frac", "ratio"}, {"sweep.worker_peak_rss_mb", "MB"},
	{"coord.leases", "count"}, {"coord.heartbeats", "count"},
	{"coord.lease_rtt_p50_ms", "ms"}, {"coord.lease_rtt_max_ms", "ms"},
	{"coord.report_rtt_p50_ms", "ms"}, {"coord.report_rtt_max_ms", "ms"},
	{"coord.busy_s", "s"}, {"coord.overhead_frac", "ratio"},

	{"trace.overhead_frac", "ratio"},
}

// workloads lists every workload name, in BENCHMARK.json order.
func workloads() []string {
	names := make([]string, 0, len(dynSpecs)+1)
	for _, w := range dynSpecs {
		names = append(names, w.name)
	}
	return append(names, "quick_sweep")
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// root is the repository root; buildDir holds build outputs, traces
	// and scratch files; experiments is the experiments binary.
	root, buildDir, experiments string
}

// checks counts output checks; a failed one is reported on stderr.
type checks struct{ attempted, failed int }

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	}
}

// out receives the human-readable lines before the result line.
var out io.Writer = os.Stdout

// info prints one "name value" line.
func info(name string, value any) { fmt.Fprintf(out, "%s %v\n", name, value) }

// measure calls body for iterations 0, 1, ... until the window has
// elapsed and at least min iterations ran, or body fails, and returns
// the number of iterations that succeeded.
func measure(window time.Duration, min int, body func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < min || time.Since(start) < window; i++ {
		if err := body(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

// resetPeakRSS restarts this process's peak resident set count (VmHWM)
// at its current resident set, so the next read covers one iteration.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads this process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and assembles its result.
func run(cfg config) (result, error) {
	ck := &checks{}
	var m map[string]float64
	var err error
	switch i := slices.IndexFunc(dynSpecs, func(w dynSpec) bool { return w.name == cfg.workload }); {
	case i >= 0:
		m, err = runDynamics(dynSpecs[i], cfg, ck)
	case cfg.workload == "quick_sweep":
		m, err = runQuickSweep(cfg, ck)
	default:
		return result{}, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloads(), ", "))
	}
	if err != nil {
		return result{}, err
	}
	return assemble(m, cfg.trace, ck)
}

// assemble builds the result from measured values: every end-to-end
// metric must be measured; per-layer metrics a workload does not reach
// are 0.
func assemble(m map[string]float64, trace bool, ck *checks) (result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !trace {
			return result{}, fmt.Errorf("%s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s measured as %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	for k := range m {
		if _, ok := res.Metrics[k]; !ok {
			return result{}, fmt.Errorf("measured metric %s is not declared", k)
		}
	}
	return res, nil
}

// printResult prints every metric with its unit, then the result line.
func printResult(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %s %s\n", k, strconv.FormatFloat(res.Metrics[k].Value, 'g', -1, 64), res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// loadAvg1 reads the one-minute load average.
func loadAvg1() (float64, error) {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return 0, errors.New("empty /proc/loadavg")
	}
	return strconv.ParseFloat(f[0], 64)
}

func main() {
	var cfg config
	var secs, trace, runs int
	var ledger string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloads(), ", "))
	flag.Int64Var(&cfg.seed, "seed", goldenSeed, "seed the workload's inputs are generated from")
	flag.IntVar(&secs, "seconds", 25, "measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.StringVar(&ledger, "ledger", "", "run every workload as child processes and write a ledger to this file")
	flag.IntVar(&runs, "runs", 5, "runs per workload in ledger mode, seeds counting up from -seed")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	}
	cfg.window = time.Duration(secs) * time.Second
	cfg.trace = trace == 1
	// The benchmark runs from the repository root; run.sh builds both
	// binaries into .bench_build.
	cfg.root, cfg.buildDir = ".", ".bench_build"
	cfg.experiments = filepath.Join(cfg.buildDir, "experiments")
	if err := os.MkdirAll(cfg.buildDir, 0o755); err != nil {
		fatal(err)
	}
	if ledger != "" {
		if err := writeLedger(ledger, cfg, runs); err != nil {
			fatal(err)
		}
		return
	}

	info("workload", cfg.workload)
	info("seed", cfg.seed)
	info("trace", trace)
	// Contention guard: a loaded machine inflates every timing.
	if load, err := loadAvg1(); err == nil {
		info("loadavg_1m", load)
		info("noisy", load > float64(runtime.NumCPU())/2)
	}
	start := time.Now()
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	// CPU time of this process and the children it waited for (the
	// served sweep's processes), over the run's wall time.
	var cpu time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	info("cpu_ratio", fmt.Sprintf("%.3f", cpu.Seconds()/time.Since(start).Seconds()))
	if err := printResult(os.Stdout, res); err != nil {
		fatal(err)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gncgbench:", err)
	os.Exit(2)
}
