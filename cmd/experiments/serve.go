package main

// The serve and work subcommands: the always-on face of the sweep
// engine. `experiments serve` opens (or resumes) a durable job store,
// exposes the coordinator over loopback HTTP (lease protocol for shard
// workers, /status and /results for dashboards) and by default launches
// K local `experiments work` subprocesses that lease small cell ranges,
// heartbeat, and checkpoint results incrementally. Any crash — a
// SIGKILLed worker, or the coordinator itself — loses at most the
// in-flight leases: re-running `serve -resume -job DIR` replays the
// journal and computes only what is missing, and the final output is
// byte-identical to a single-process unsharded run.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gncg/internal/coord"
	"gncg/internal/sweep"
)

// serveMain implements the serve subcommand.
func serveMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jobDir := fs.String("job", "", "durable job directory (journal + snapshot + status.addr); required")
	resume := fs.Bool("resume", false, "continue the job already journaled in -job (selection inherited from its header)")
	listen := fs.String("listen", "127.0.0.1:0", "HTTP listen address for the lease protocol and the /status endpoint")
	shards := fs.Int("shards", 2, "local worker subprocesses to launch (0 = none; external `experiments work -connect` shards may join)")
	quick := fs.Bool("quick", false, "smaller size ladders")
	run := fs.String("run", "", "comma-separated experiment names and/or tags (default: all)")
	workers := fs.Int("workers", 0, "worker goroutines per shard (0 = GOMAXPROCS each; beware oversubscription)")
	batch := fs.Int("batch", 0, "cells per lease (0 = adaptive: pending/(4*shards), clamped to [1,16])")
	leaseTTL := fs.Duration("lease-ttl", 60*time.Second, "lease heartbeat deadline before cells are re-issued")
	outPath := fs.String("out", "", "write merged JSON to this file ('-' = stdout)")
	csvPath := fs.String("csv", "", "write merged long-format CSV to this file ('-' = stdout)")
	widePath := fs.String("wide", "", "write merged wide-format CSV (one <experiment>.csv per experiment) into this directory")
	progress := fs.Bool("progress", false, "report scheduling and per-cell progress on stderr")
	linger := fs.Duration("linger", 0, "keep /status and /results up this long after completion (POST /shutdown ends it early)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: experiments serve -job DIR [-resume] [-shards K] [-listen addr] [-run spec] [-quick] [-out merged.json] [selector...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobDir == "" {
		fmt.Fprintln(stderr, "serve: -job DIR is required (the journal is the whole point)")
		fs.Usage()
		return 2
	}
	spec := *run
	if rest := fs.Args(); len(rest) > 0 {
		if spec != "" {
			spec += ","
		}
		spec += strings.Join(rest, ",")
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// On resume, inherit the journaled selection unless flags insist;
	// insisting on a different one fails loudly in coord.Open.
	if *resume {
		prev, ok, err := coord.ReadSpec(*jobDir)
		if err != nil {
			fmt.Fprintf(stderr, "serve: %v\n", err)
			return 1
		}
		if ok {
			if !explicit["run"] && len(fs.Args()) == 0 {
				spec = prev.Spec
			}
			if !explicit["quick"] {
				*quick = prev.Quick
			}
		}
	}
	ensureRegistered()
	exps, err := sweep.Select(spec)
	if err != nil {
		fmt.Fprintf(stderr, "%v (use -list)\n", err)
		return 2
	}
	if *outPath == "-" && *csvPath == "-" {
		fmt.Fprintln(stderr, "-out - and -csv - cannot share stdout")
		return 2
	}

	jobSpec := coord.SpecFor(spec, *quick, exps)
	store, err := coord.Open(*jobDir, jobSpec, *resume)
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	defer store.Close()

	logf := func(format string, args ...any) {
		if *progress {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	co, err := coord.New(store, sweep.Enumerate(exps, *quick), coord.Options{
		LeaseTTL: *leaseTTL, Batch: *batch, Logf: logf,
	})
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	srv := coord.NewServer(co)
	addr, err := srv.Start(*listen)
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	defer srv.Close()
	// status.addr lets dashboards, CI smoke tests and resuming humans find
	// the endpoint without parsing logs.
	addrFile := filepath.Join(*jobDir, "status.addr")
	if err := os.WriteFile(addrFile, []byte(addr+"\n"), 0o644); err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "serve: job %q (%d cells, %d done) listening on http://%s\n",
		spec, jobSpec.Cells, store.CountDone(), addr)

	// Local shard workers: re-exec this binary in work mode. Each child's
	// diagnostics stream live under a [shard N] prefix; crashed children
	// restart with bounded backoff (the journal makes restarts cheap — a
	// restarted shard re-leases, it does not redo finished cells).
	out := &lockedWriter{w: stderr}
	kill := make(chan struct{})
	var killOnce sync.Once
	var wg sync.WaitGroup
	workerErrs := make([]error, *shards)
	exe, err := os.Executable()
	if err != nil && *shards > 0 {
		fmt.Fprintf(stderr, "serve: cannot locate own binary: %v\n", err)
		return 1
	}
	for i := 0; i < *shards; i++ {
		name := fmt.Sprintf("shard-%d", i)
		cargs := []string{"work", "-connect", addr, "-name", name,
			"-workers", fmt.Sprint(*workers), "-batch", fmt.Sprint(*batch)}
		if *progress {
			cargs = append(cargs, "-progress")
		}
		wg.Add(1)
		go func(i int, name string, cargs []string) {
			defer wg.Done()
			workerErrs[i] = superviseChild(childSpec{
				exe: exe, args: cargs, prefix: "[" + name + "] ", out: out,
				attempts: 4, backoff: 500 * time.Millisecond,
				stop: kill, done: co.Done(),
			})
		}(i, name, cargs)
	}

	code := 0
	select {
	case <-co.Done():
	case <-srv.ShutdownRequested():
		st := co.Status()
		fmt.Fprintf(stderr, "serve: shutdown requested with job incomplete (%d/%d cells done); journal keeps the progress — resume with `serve -resume -job %s`\n",
			st.Progress.Done, st.Job.Cells, *jobDir)
		code = 1
	}
	killOnce.Do(func() { close(kill) })
	wg.Wait()
	if code == 0 {
		for i, werr := range workerErrs {
			if werr != nil {
				fmt.Fprintf(stderr, "serve: shard-%d: %v\n", i, werr)
			}
		}
		// Completion is judged by the store, not the children: external
		// shards may have done the work of a dead local one.
		if store.CountDone() != jobSpec.Cells {
			fmt.Fprintf(stderr, "serve: all local shards exited with %d/%d cells done; resume with `serve -resume -job %s`\n",
				store.CountDone(), jobSpec.Cells, *jobDir)
			return 1
		}
		rs, err := store.Results()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rs.AttachMeta()
		if err := writeResults(rs, *outPath, *csvPath, *widePath); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := rs.FirstErr(); err != nil {
			fmt.Fprintln(stderr, err)
			code = 1
		}
	}
	if *linger > 0 {
		fmt.Fprintf(stderr, "serve: lingering %s on http://%s (POST /shutdown to stop)\n", *linger, addr)
		select {
		case <-time.After(*linger):
		case <-srv.ShutdownRequested():
		}
	}
	return code
}

// workMain implements the work subcommand: one shard worker leasing from
// a coordinator. Normally spawned by serve, but equally happy started by
// hand on the same machine to join (or steal from) a running job.
func workMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("work", flag.ContinueOnError)
	fs.SetOutput(stderr)
	connect := fs.String("connect", "", "coordinator address (host:port, from the job dir's status.addr); required")
	name := fs.String("name", "", "shard name in leases and telemetry (default worker-<pid>)")
	workers := fs.Int("workers", 0, "worker goroutines for cells of one lease (0 = GOMAXPROCS)")
	batch := fs.Int("batch", 0, "max cells to request per lease (0 = coordinator's policy)")
	progress := fs.Bool("progress", false, "report per-lease progress on stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: experiments work -connect host:port [-name shard-X] [-workers N]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *connect == "" {
		fs.Usage()
		return 2
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	opts := coord.WorkerOptions{
		Name: *name, Workers: *workers, Batch: *batch, Resolve: resolveSelection,
	}
	if *progress {
		opts.Logf = func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	}
	if err := coord.RunWorker(*connect, opts); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// resolveSelection maps a job's selection back to registered
// experiments for coord.RunWorker.
func resolveSelection(spec string, quick bool) ([]sweep.Experiment, error) {
	ensureRegistered()
	return sweep.Select(spec)
}

// childSpec describes one supervised subprocess of serve.
type childSpec struct {
	exe    string
	args   []string
	prefix string
	out    *lockedWriter
	// attempts bounds total launches; backoff doubles between them.
	attempts int
	backoff  time.Duration
	// stop kills the child and ends supervision (shutdown path).
	stop <-chan struct{}
	// done suppresses restarts once closed (job complete; a child dying
	// after the last report is not a failure).
	done <-chan struct{}
}

// superviseChild runs a child with live line-prefixed diagnostics and
// bounded crash retry. The first failure's streamed output is also
// captured (bounded) so the eventual error report preserves the original
// diagnostics even after retries overwrite the terminal.
func superviseChild(spec childSpec) error {
	var firstErr error
	var firstDiag string
	backoff := spec.backoff
	for attempt := 1; ; attempt++ {
		pw := newPrefixWriter(spec.out, spec.prefix)
		cmd := exec.Command(spec.exe, spec.args...)
		cmd.Stdout = pw
		cmd.Stderr = pw
		err := cmd.Start()
		if err == nil {
			waited := make(chan error, 1)
			go func() { waited <- cmd.Wait() }()
			select {
			case err = <-waited:
			case <-spec.stop:
				cmd.Process.Kill()
				<-waited
				pw.Flush()
				return firstErr
			}
		}
		pw.Flush()
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
			firstDiag = pw.Captured()
		}
		select {
		case <-spec.done:
			// The job finished without this child; its death is noise.
			return nil
		default:
		}
		if attempt >= spec.attempts {
			return fmt.Errorf("%w (after %d attempts)", failure(firstErr, firstDiag), attempt)
		}
		fmt.Fprintf(pw, "child crashed (%v); retrying in %s (attempt %d/%d)\n",
			err, backoff, attempt+1, spec.attempts)
		pw.Flush()
		select {
		case <-spec.stop:
			return firstErr
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// failure decorates a child error with the preserved first-failure
// diagnostics.
func failure(err error, diag string) error {
	if strings.TrimSpace(diag) == "" {
		return err
	}
	return fmt.Errorf("%w; first failure's diagnostics:\n%s", err, strings.TrimSpace(diag))
}

// prefixWriter streams a child's output live, one "[shard N] "-prefixed
// line at a time, onto a shared serialized writer — long nightly sweeps
// stay observable while running instead of dumping interleaved stderr at
// exit. It also keeps a bounded copy for post-mortem error reports.
type prefixWriter struct {
	out    *lockedWriter
	prefix string
	mu     sync.Mutex
	line   []byte // pending partial line
	keep   []byte // bounded capture for diagnostics preservation
}

const prefixCaptureMax = 16 << 10

func newPrefixWriter(out *lockedWriter, prefix string) *prefixWriter {
	return &prefixWriter{out: out, prefix: prefix}
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.keep) < prefixCaptureMax {
		n := prefixCaptureMax - len(p.keep)
		if n > len(b) {
			n = len(b)
		}
		p.keep = append(p.keep, b[:n]...)
	}
	p.line = append(p.line, b...)
	for {
		i := bytes.IndexByte(p.line, '\n')
		if i < 0 {
			break
		}
		p.emit(p.line[:i+1])
		p.line = p.line[i+1:]
	}
	return len(b), nil
}

// Flush emits any pending partial line (child exit without trailing
// newline).
func (p *prefixWriter) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.line) > 0 {
		p.emit(append(p.line, '\n'))
		p.line = nil
	}
}

// Captured returns the bounded copy of everything written so far.
func (p *prefixWriter) Captured() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return string(p.keep)
}

func (p *prefixWriter) emit(line []byte) {
	buf := make([]byte, 0, len(p.prefix)+len(line))
	buf = append(buf, p.prefix...)
	buf = append(buf, line...)
	p.out.Write(buf)
}
