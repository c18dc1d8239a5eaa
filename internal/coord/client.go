package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"gncg/internal/sweep"
)

// WorkerOptions configures one shard worker process.
type WorkerOptions struct {
	// Name identifies this shard in leases, telemetry and logs.
	Name string
	// Workers bounds cell-level parallelism inside this shard
	// (sweep.Config.Workers semantics: <= 0 means GOMAXPROCS).
	Workers int
	// Batch caps cells requested per lease; 0 defers to the coordinator's
	// adaptive policy.
	Batch int
	// Resolve maps the job's (spec, quick) back to experiments — the
	// registry lookup in the CLI, an explicit list in tests.
	Resolve func(spec string, quick bool) ([]sweep.Experiment, error)
	// Logf, if non-nil, receives advisory progress lines.
	Logf func(format string, args ...any)
	// MaxLeases, if > 0, makes the worker exit cleanly after completing
	// that many leases (tests use it to stage partial progress).
	MaxLeases int
}

// RunWorker connects to a coordinator, verifies it computes the same
// cell enumeration, and loops lease → execute → report with heartbeats
// until a lease or report reply declares the job done. Transient transport
// errors are retried with backoff; a coordinator that stays unreachable
// makes the worker exit with an error (an orphan must not spin forever
// after its coordinator is SIGKILLed).
func RunWorker(addr string, opts WorkerOptions) error {
	if opts.Resolve == nil {
		return fmt.Errorf("coord: worker needs a Resolve function")
	}
	cl := &client{base: "http://" + addr, hc: &http.Client{Timeout: 5 * time.Minute}}
	var jr jobResponse
	if err := cl.call("GET", "/job", nil, &jr); err != nil {
		return fmt.Errorf("coord: worker %s: job handshake: %w", opts.Name, err)
	}
	exps, err := opts.Resolve(jr.Job.Spec, jr.Job.Quick)
	if err != nil {
		return fmt.Errorf("coord: worker %s: %w", opts.Name, err)
	}
	if local := SpecFor(jr.Job.Spec, jr.Job.Quick, exps); local != jr.Job {
		return fmt.Errorf("coord: worker %s enumerates {cells %d fp %q} but coordinator has {cells %d fp %q}; mixed binaries",
			opts.Name, local.Cells, local.Fingerprint, jr.Job.Cells, jr.Job.Fingerprint)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	leasesDone := 0
	for {
		var lr leaseResponse
		if err := cl.call("POST", "/lease", leaseRequest{Shard: opts.Name, Max: opts.Batch}, &lr); err != nil {
			return fmt.Errorf("coord: worker %s: lease: %w", opts.Name, err)
		}
		if lr.Done {
			logf("worker %s: job done, exiting", opts.Name)
			return nil
		}
		if len(lr.Cells) == 0 {
			time.Sleep(time.Duration(lr.WaitMS) * time.Millisecond)
			continue
		}
		logf("worker %s: lease %d: %d cells [%d..%d]",
			opts.Name, lr.ID, len(lr.Cells), lr.Cells[0], lr.Cells[len(lr.Cells)-1])

		// Heartbeat while the batch runs so long cells (minutes at the
		// n=10^4 rungs) outlive any TTL.
		stop := make(chan struct{})
		beatDead := make(chan struct{})
		go func() {
			defer close(beatDead)
			every := time.Duration(lr.TTLMS) * time.Millisecond / 3
			if every <= 0 {
				every = time.Second
			}
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var hr heartbeatResponse
					if err := cl.call("POST", "/heartbeat", heartbeatRequest{ID: lr.ID, Shard: opts.Name}, &hr); err == nil && !hr.OK {
						// Lease already expired server-side; keep computing —
						// the late report still deduplicates cleanly.
						logf("worker %s: lease %d expired under us", opts.Name, lr.ID)
						return
					}
				}
			}
		}()
		rs, runErr := sweep.RunSeqs(exps, sweep.Config{Quick: jr.Job.Quick, Workers: opts.Workers}, lr.Cells)
		close(stop)
		<-beatDead
		if runErr != nil {
			return fmt.Errorf("coord: worker %s: lease %d: %w", opts.Name, lr.ID, runErr)
		}
		req := reportRequest{ID: lr.ID, Shard: opts.Name}
		for _, c := range rs.Cells {
			req.Cells = append(req.Cells, json.RawMessage(sweep.CellJSON(c)))
		}
		var rr reportResponse
		if err := cl.call("POST", "/report", req, &rr); err != nil {
			return fmt.Errorf("coord: worker %s: report lease %d: %w", opts.Name, lr.ID, err)
		}
		logf("worker %s: lease %d reported (%d cells)", opts.Name, lr.ID, len(rs.Cells))
		if rr.Done {
			logf("worker %s: job done, exiting", opts.Name)
			return nil
		}
		leasesDone++
		if opts.MaxLeases > 0 && leasesDone >= opts.MaxLeases {
			logf("worker %s: lease budget reached, exiting", opts.Name)
			return nil
		}
	}
}

// client is a minimal JSON-over-HTTP caller with bounded retry: brief
// coordinator hiccups (restart between crash and resume) are absorbed,
// sustained unreachability propagates as an error.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) call(method, path string, in, out any) error {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 250 * time.Millisecond)
		}
		var body io.Reader
		if in != nil {
			raw, err := json.Marshal(in)
			if err != nil {
				return err
			}
			body = bytes.NewReader(raw)
		}
		req, err := http.NewRequest(method, c.base+path, body)
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Protocol-level rejections are not transient.
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
	return fmt.Errorf("%s %s: coordinator unreachable: %w", method, path, lastErr)
}
