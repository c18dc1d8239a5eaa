package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// childRun is one benchmark run made in ledger mode.
type childRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	LoadAvg1 float64 `json:"loadavg_1m"` // read just before the child started
	Noisy    bool    `json:"noisy"`      // load above half the CPUs at start
	// CPURatio is the child's user+system time, its own children's
	// included, over its wall time.
	CPURatio float64 `json:"cpu_ratio"`
	WallS    float64 `json:"wall_s"`
	result   result
}

// summary is one end-to-end metric over a workload's runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// writeLedger runs every workload runs times, round-robin so machine
// drift spreads evenly, then one traced run each, and writes the
// summaries with the machine facts to path.
func writeLedger(path string, cfg config, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var all []childRun
	for r := 0; r < runs; r++ {
		for _, w := range workloads() {
			c, err := runChild(exe, cfg, w, cfg.seed+int64(r), false)
			if err != nil {
				return err
			}
			all = append(all, c)
		}
	}
	for _, w := range workloads() {
		c, err := runChild(exe, cfg, w, cfg.seed, true)
		if err != nil {
			return err
		}
		all = append(all, c)
	}

	e2e := map[string]map[string]summary{}
	layers := map[string]map[string]metricValue{}
	for _, w := range workloads() {
		e2e[w] = map[string]summary{}
		for _, d := range endToEnd {
			var vs []float64
			for _, c := range all {
				if c.Workload == w && !c.Trace {
					vs = append(vs, c.result.Metrics[d.name].Value)
				}
			}
			e2e[w][d.name] = summary{Unit: d.unit, Median: quantile(vs, 0.5),
				P25: quantile(vs, 0.25), P75: quantile(vs, 0.75), N: len(vs), Values: vs}
		}
		for _, c := range all {
			if c.Workload == w && c.Trace {
				layers[w] = c.result.Metrics
			}
		}
	}
	model := ""
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	doc := map[string]any{
		"machine": map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"cpu_model": model, "go_version": runtime.Version(),
		},
		"settings":   map[string]any{"runs": runs, "seconds": cfg.window.Seconds(), "first_seed": cfg.seed},
		"end_to_end": e2e,
		"per_layer":  layers,
		"runs":       all,
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runChild runs one workload in a child process and parses its result.
func runChild(exe string, cfg config, workload string, seed int64, trace bool) (childRun, error) {
	c := childRun{Workload: workload, Seed: seed, Trace: trace}
	c.LoadAvg1, _ = loadAvg1()
	c.Noisy = c.LoadAvg1 > float64(runtime.NumCPU())/2
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(int(cfg.window.Seconds())), "--trace", tr)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	c.WallS = time.Since(start).Seconds()
	if err != nil {
		return c, fmt.Errorf("%s seed %d trace %v: %w", workload, seed, trace, err)
	}
	cpu := cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	c.CPURatio = cpu.Seconds() / c.WallS
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.result); err != nil {
		return c, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	fmt.Fprintf(os.Stderr, "ledger: %s seed %d trace %v: %.1fs, %d/%d checks failed\n",
		workload, seed, trace, c.WallS, c.result.Failed, c.result.Attempted)
	return c, nil
}
