package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"gncg/internal/sweep"
)

// The quick_sweep workload runs the quick sweep through the durable sweep
// service: `experiments serve` with no local shards, and one
// `experiments work` shard connected over loopback. The equilibrium
// experiment is left out: its tree n=500 cell alone runs longer than a
// measuring window, and rewire_tree measures the same dynamics.
var sweepSkip = map[string]bool{"equilibrium": true}

// sweepRun is one measured sweep.
type sweepRun struct {
	setup, wall time.Duration
	cells, errs int
	// Peak resident sets of the serve and work processes.
	serveRSSMB, workRSSMB float64
	traced                bool
	proxy                 *coordProxy
}

func runQuickSweep(cfg config, ck *checks) (map[string]float64, error) {
	golden, err := os.ReadFile(filepath.Join(cfg.root, goldenPath))
	if err != nil {
		return nil, err
	}
	want, exps, err := expectedSweep(golden, sweepSkip)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.experiments); err != nil {
		return nil, fmt.Errorf("experiments binary: %w", err)
	}
	tmp, err := os.MkdirTemp(cfg.buildDir, "quick-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// The whole run, its last sweep included, must end well inside the
	// benchmark's time limit; a hung child is killed.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.window+120*time.Second)
	defer cancel()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var runs []sweepRun
	iters, err := measure(cfg.window, 2, func(i int) error {
		// A traced run alternates plain and proxied sweeps.
		traced := cfg.trace && i%2 == 1
		dir := filepath.Join(tmp, fmt.Sprint(i))
		var t *tracer
		if traced {
			t = tr
			t.setRun(i)
		}
		r, out, err := serveSweep(ctx, cfg.experiments, dir, strings.Join(exps, ","), t, ck)
		if err != nil {
			return err
		}
		r.traced = traced
		ck.expect(bytes.Equal(out, want), "quick_sweep: output differs from %s (%s)", goldenPath, firstDiff(out, want))
		rs, err := sweep.DecodeJSON(bytes.NewReader(out))
		ck.expect(err == nil, "quick_sweep: decode output: %v", err)
		if err == nil {
			r.cells = len(rs.Cells)
			for _, c := range rs.Cells {
				if c.Err != "" {
					r.errs++
				}
			}
			ck.expect(r.errs == 0, "quick_sweep: %d cells failed", r.errs)
		}
		runs = append(runs, r)
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	info("iterations", iters)

	var plain, traced []sweepRun
	for _, r := range runs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	wallS := func(r sweepRun) float64 { return r.wall.Seconds() }
	if cfg.trace {
		m := sweepLayers(traced)
		m["sweep.worker_peak_rss_mb"] = median(runs, func(r sweepRun) float64 { return r.workRSSMB })
		m["trace.overhead_frac"] = median(traced, wallS)/median(plain, wallS) - 1
		return m, tr.writeJSONL(traceFile(cfg.buildDir, "quick_sweep", cfg.seed))
	}
	return map[string]float64{
		"setup_s":     median(plain, func(r sweepRun) float64 { return r.setup.Seconds() }),
		"wall_s":      median(plain, wallS),
		"work_per_s":  median(plain, func(r sweepRun) float64 { return float64(r.cells) / (r.wall - r.setup).Seconds() }),
		"peak_rss_mb": median(plain, func(r sweepRun) float64 { return r.serveRSSMB }),
	}, nil
}

// serveSweep runs one served sweep in a fresh job directory and returns
// its timings and merged output. setup runs from launching serve until
// it announces its address; wall runs until both processes have exited.
// With a tracer the worker connects through a timing proxy.
//
// serve lingers after the job completes and is stopped with POST
// /shutdown once the worker has exited: without -linger it closes its
// listener as soon as the last cell is reported, and the worker's
// closing lease request then finds no coordinator and fails after its
// retries.
func serveSweep(ctx context.Context, exe, dir, spec string, tr *tracer, ck *checks) (sweepRun, []byte, error) {
	var r sweepRun
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, nil, err
	}
	outPath := filepath.Join(dir, "out.json")
	root := tr.begin("sweep")
	defer tr.end(root, nil)
	setupID := tr.begin("setup")

	start := time.Now()
	serve := exec.CommandContext(ctx, exe, "serve", "-job", filepath.Join(dir, "job"), "-shards", "0",
		"-quick", "-run", spec, "-out", outPath, "-linger", "10m")
	stderr, err := serve.StderrPipe()
	if err != nil {
		return r, nil, err
	}
	if err := serve.Start(); err != nil {
		return r, nil, fmt.Errorf("start serve: %w", err)
	}
	// serve writes status.addr, then announces it on stderr; the rest of
	// its stderr is kept for diagnostics.
	var diag bytes.Buffer
	ready := make(chan bool, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced && strings.Contains(line, " listening on http://") {
				announced = true
				ready <- true
				continue
			}
			diag.WriteString(line + "\n")
		}
		if !announced {
			ready <- false
		}
	}()
	if !<-ready {
		<-drained
		serve.Wait()
		return r, nil, fmt.Errorf("serve exited before listening: %s", strings.TrimSpace(diag.String()))
	}
	r.setup = time.Since(start)
	tr.end(setupID, nil)
	raw, err := os.ReadFile(filepath.Join(dir, "job", "status.addr"))
	serveAddr := strings.TrimSpace(string(raw))
	addr := serveAddr
	if err == nil && tr != nil {
		r.proxy, err = startProxy(serveAddr, tr)
		if err == nil {
			addr = r.proxy.addr
		}
	}
	if err != nil {
		serve.Process.Kill()
		<-drained
		serve.Wait()
		return r, nil, err
	}

	var workDiag bytes.Buffer
	work := exec.CommandContext(ctx, exe, "work", "-connect", addr, "-name", "shard-0",
		"-workers", fmt.Sprint(runtime.GOMAXPROCS(0)))
	work.Stderr = &workDiag
	workErr := work.Run()
	shutdown(serveAddr)
	<-drained
	serveErr := serve.Wait()
	r.wall = time.Since(start)
	if r.proxy != nil {
		r.proxy.close()
	}
	ck.expect(workErr == nil, "quick_sweep: work: %v: %s", workErr, strings.TrimSpace(workDiag.String()))
	ck.expect(serveErr == nil, "quick_sweep: serve: %v: %s", serveErr, strings.TrimSpace(diag.String()))
	r.serveRSSMB, r.workRSSMB = peakRSSOf(serve.ProcessState), peakRSSOf(work.ProcessState)
	out, err := os.ReadFile(outPath)
	if err != nil && serveErr == nil {
		return r, nil, err
	}
	return r, out, nil
}

// peakRSSOf is an exited process's peak resident set, 0 if unknown.
func peakRSSOf(p *os.ProcessState) float64 {
	if p == nil {
		return 0
	}
	if ru, ok := p.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// shutdown asks a lingering serve to exit. serve may close the
// connection before its answer is sent, so only its exit status tells
// whether the sweep ended well; a request that never arrives leaves serve
// running until the run's deadline kills it.
func shutdown(addr string) {
	c := http.Client{Timeout: 10 * time.Second}
	if resp, err := c.Post("http://"+addr+"/shutdown", "application/json", nil); err == nil {
		resp.Body.Close()
	}
}

// firstDiff describes where two outputs first differ.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %.120q", i+1, la[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(la), len(lb))
}

// coordProxy forwards the worker's lease protocol to serve and times each
// request. It pairs every lease with its report, by lease id, to measure
// how long the worker held the lease.
type coordProxy struct {
	addr string
	srv  *http.Server
	tr   *tracer
	done chan struct{}

	mu       sync.Mutex
	leasedAt map[int64]time.Time
	rtt      map[string][]time.Duration
	leases   int
	leaseMax time.Duration
}

func startProxy(target string, tr *tracer) (*coordProxy, error) {
	u, err := url.Parse("http://" + target)
	if err != nil {
		return nil, err
	}
	p := &coordProxy{tr: tr, done: make(chan struct{}),
		leasedAt: map[int64]time.Time{}, rtt: map[string][]time.Duration{}}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = &http.Transport{MaxIdleConnsPerHost: 1}
	rp.ModifyResponse = p.sawResponse
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.addr = ln.Addr().String()
	p.srv = &http.Server{Handler: p.handler(rp)}
	go func() {
		defer close(p.done)
		p.srv.Serve(ln)
	}()
	return p, nil
}

// close stops the proxy once its in-flight requests have finished, and
// waits for it to exit.
func (p *coordProxy) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if p.srv.Shutdown(ctx) != nil {
		p.srv.Close()
	}
	<-p.done
}

func (p *coordProxy) handler(rp *httputil.ReverseProxy) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		report := int64(-1)
		if req.URL.Path == "/report" {
			body, err := io.ReadAll(req.Body)
			if err == nil {
				var id struct {
					ID int64 `json:"id"`
				}
				if json.Unmarshal(body, &id) == nil {
					report = id.ID
				}
				req.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		rp.ServeHTTP(w, req)
		end := time.Now()
		p.tr.leaf("coord"+req.URL.Path, start, end, nil)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.rtt[req.URL.Path] = append(p.rtt[req.URL.Path], end.Sub(start))
		if at, ok := p.leasedAt[report]; ok {
			delete(p.leasedAt, report)
			p.leaseMax = max(p.leaseMax, start.Sub(at))
			p.tr.leaf("sweep.lease", at, start, map[string]int64{"lease": report})
		}
	})
}

// sawResponse notes when a lease carrying cells was handed out.
func (p *coordProxy) sawResponse(resp *http.Response) error {
	if resp.Request.URL.Path != "/lease" {
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var lr struct {
		ID    int64 `json:"id"`
		Cells []int `json:"cells"`
	}
	if json.Unmarshal(body, &lr) == nil && len(lr.Cells) > 0 {
		p.mu.Lock()
		p.leasedAt[lr.ID] = time.Now()
		p.leases++
		p.mu.Unlock()
	}
	return nil
}

// sweepLayers folds the proxied sweeps into the sweep and coord metrics,
// as means per sweep; round-trip quantiles pool every request.
func sweepLayers(traced []sweepRun) map[string]float64 {
	k := float64(len(traced))
	var cells, errs, leases, beats, leaseMax, tail, busy, overhead float64
	var leaseMS, reportMS []float64
	for _, r := range traced {
		p := r.proxy
		cells += float64(r.cells)
		errs += float64(r.errs)
		leases += float64(p.leases)
		beats += float64(len(p.rtt["/heartbeat"]))
		leaseMax += p.leaseMax.Seconds()
		tail += p.leaseMax.Seconds() / r.wall.Seconds()
		var sum time.Duration
		for path, ds := range p.rtt {
			for _, d := range ds {
				sum += d
				switch path {
				case "/lease":
					leaseMS = append(leaseMS, float64(d)/1e6)
				case "/report":
					reportMS = append(reportMS, float64(d)/1e6)
				}
			}
		}
		busy += sum.Seconds()
		overhead += sum.Seconds() / r.wall.Seconds()
	}
	return map[string]float64{
		"sweep.cells":             cells / k,
		"sweep.cell_errors":       errs / k,
		"sweep.lease_max_s":       leaseMax / k,
		"sweep.tail_frac":         tail / k,
		"coord.leases":            leases / k,
		"coord.heartbeats":        beats / k,
		"coord.lease_rtt_p50_ms":  quantile(leaseMS, 0.5),
		"coord.lease_rtt_max_ms":  quantile(leaseMS, 1),
		"coord.report_rtt_p50_ms": quantile(reportMS, 0.5),
		"coord.report_rtt_max_ms": quantile(reportMS, 1),
		"coord.busy_s":            busy / k,
		"coord.overhead_frac":     overhead / k,
	}
}
