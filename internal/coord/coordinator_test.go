package coord

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"gncg/internal/sweep"
)

func testResolve(t *testing.T) func(spec string, quick bool) ([]sweep.Experiment, error) {
	return func(spec string, quick bool) ([]sweep.Experiment, error) {
		if spec != testSpec {
			return nil, fmt.Errorf("unexpected spec %q", spec)
		}
		return testExps(), nil
	}
}

// startService opens (or resumes) a store in dir and brings up a
// coordinator + server on a random loopback port.
func startService(t *testing.T, dir string, resume bool, opts Options) (*Store, *Coordinator, *Server, string) {
	t.Helper()
	exps := testExps()
	spec := SpecFor(testSpec, false, exps)
	store, err := Open(dir, spec, resume)
	if err != nil {
		t.Fatal(err)
	}
	co, err := New(store, sweep.Enumerate(exps, false), opts)
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	srv := NewServer(co)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	return store, co, srv, addr
}

// TestWorkStealingFullRun: several workers drain the job through the
// lease protocol; the assembled store is byte-identical to an unsharded
// in-process run.
func TestWorkStealingFullRun(t *testing.T) {
	_, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{})
	defer store.Close()
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(addr, WorkerOptions{
				Name: fmt.Sprintf("shard-%d", i), Workers: 2, Resolve: testResolve(t),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	select {
	case <-co.Done():
	default:
		t.Fatal("all workers exited but the coordinator is not done")
	}
	rs, err := store.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("work-stealing run differs from unsharded run")
	}
	st := co.Status()
	if st.State != "done" || st.Progress.Done != st.Job.Cells || st.Progress.Pending != 0 {
		t.Fatalf("final status %+v", st)
	}
}

// TestAbandonedLeaseStolen is the SIGKILLed-shard scenario driven
// deterministically: a raw client takes a lease and vanishes (no
// heartbeat, no report — exactly what SIGKILL leaves behind). The lease
// must expire, its cells must be re-issued to the live worker, and the
// final output must be byte-identical anyway.
func TestAbandonedLeaseStolen(t *testing.T) {
	_, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{LeaseTTL: 150 * time.Millisecond})
	defer store.Close()
	defer srv.Close()

	// The doomed shard grabs a batch and dies.
	cl := &client{base: "http://" + addr, hc: http.DefaultClient}
	var lr leaseResponse
	if err := cl.call("POST", "/lease", leaseRequest{Shard: "doomed", Max: 4}, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Cells) == 0 || lr.Done {
		t.Fatalf("doomed shard got no work: %+v", lr)
	}

	if err := RunWorker(addr, WorkerOptions{Name: "survivor", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-co.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("job did not complete after lease expiry")
	}
	rs, err := store.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("post-steal output differs from unsharded run")
	}
	st := co.Status()
	if st.Steals < 1 || st.CellsStolen < int64(len(lr.Cells)) {
		t.Fatalf("expected a recorded steal of %d cells, status %+v", len(lr.Cells), st)
	}
}

// TestLateReportAfterStealDeduplicates: the "dead" shard turns out to be
// alive and reports after its lease expired and the work was redone.
// The duplicate bytes must be absorbed without error or double-count.
func TestLateReportAfterStealDeduplicates(t *testing.T) {
	ref, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{LeaseTTL: 100 * time.Millisecond})
	defer store.Close()
	defer srv.Close()

	cl := &client{base: "http://" + addr, hc: http.DefaultClient}
	var lr leaseResponse
	if err := cl.call("POST", "/lease", leaseRequest{Shard: "slow", Max: 3}, &lr); err != nil {
		t.Fatal(err)
	}
	if err := RunWorker(addr, WorkerOptions{Name: "fast", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	<-co.Done()

	// The slow shard finally reports the (identical, deterministic) cells.
	req := reportRequest{ID: lr.ID, Shard: "slow"}
	for _, seq := range lr.Cells {
		req.Cells = append(req.Cells, json.RawMessage(sweep.CellJSON(ref.Cells[seq])))
	}
	var rr reportResponse
	if err := cl.call("POST", "/report", req, &rr); err != nil {
		t.Fatalf("late report rejected: %v", err)
	}
	if !rr.OK || !rr.Done {
		t.Fatalf("late report reply %+v, want ok and done", rr)
	}
	rs, err := store.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("late duplicate report corrupted the store")
	}
}

// TestCoordinatorCrashResume: stage partial progress, tear the whole
// service down (server + store, as a coordinator crash would), then
// resume from the journal and finish. The merged output must be
// byte-identical to the uninterrupted run and nothing is recomputed that
// the journal already holds.
func TestCoordinatorCrashResume(t *testing.T) {
	_, refJSON := refRun(t, testExps())
	dir := t.TempDir()
	store, _, srv, addr := startService(t, dir, false, Options{Batch: 4})

	// One worker, one lease, then everything stops.
	if err := RunWorker(addr, WorkerOptions{
		Name: "shard-0", Resolve: testResolve(t), MaxLeases: 1, Batch: 4,
	}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	doneBefore := store.CountDone()
	if doneBefore == 0 || doneBefore >= SpecFor(testSpec, false, testExps()).Cells {
		t.Fatalf("staged progress = %d cells, want partial", doneBefore)
	}
	store.Close()

	// Resume: the new coordinator must only queue the remainder.
	store2, co2, srv2, addr2 := startService(t, dir, true, Options{})
	defer store2.Close()
	defer srv2.Close()
	if got := store2.CountDone(); got != doneBefore {
		t.Fatalf("resume lost progress: %d done, had %d", got, doneBefore)
	}
	st := co2.Status()
	if st.Progress.Pending != st.Job.Cells-doneBefore {
		t.Fatalf("resumed pending = %d, want %d", st.Progress.Pending, st.Job.Cells-doneBefore)
	}
	if err := RunWorker(addr2, WorkerOptions{Name: "shard-1", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	<-co2.Done()
	rs, err := store2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if encodeSet(t, rs) != refJSON {
		t.Fatal("crash/resume output differs from uninterrupted run")
	}
}

// TestStatusAndResultsEndpoints exercises the observability surface over
// real HTTP mid-run and post-run.
func TestStatusAndResultsEndpoints(t *testing.T) {
	dir := t.TempDir()
	store, co, srv, addr := startService(t, dir, false, Options{Batch: 5})
	defer store.Close()
	defer srv.Close()

	// Stage partial progress so /status shows a genuinely running job.
	if err := RunWorker(addr, WorkerOptions{
		Name: "shard-0", Resolve: testResolve(t), MaxLeases: 1, Batch: 5,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != "running" || st.Job.Cells == 0 || st.Progress.Done == 0 ||
		st.Progress.Done+st.Progress.Leased+st.Progress.Pending != st.Job.Cells {
		t.Fatalf("mid-run status: %+v", st)
	}
	if len(st.Experiments) != 2 || st.Experiments[0].Name != "grid" {
		t.Fatalf("experiment progress: %+v", st.Experiments)
	}
	if len(st.Shards) != 1 || st.Shards[0].Name != "shard-0" || !st.Shards[0].Alive {
		t.Fatalf("shard liveness: %+v", st.Shards)
	}

	// /results mid-run: a valid canonical partial set.
	resp, err = http.Get("http://" + addr + "/results")
	if err != nil {
		t.Fatal(err)
	}
	partial, err := sweep.DecodeJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(partial.Cells) != st.Progress.Done {
		t.Fatalf("/results has %d cells, status says %d done", len(partial.Cells), st.Progress.Done)
	}

	if err := RunWorker(addr, WorkerOptions{Name: "shard-0", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	<-co.Done()

	// /shutdown flips the linger signal.
	resp, err = http.Post("http://"+addr+"/shutdown", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-srv.ShutdownRequested():
	case <-time.After(time.Second):
		t.Fatal("shutdown request not signalled")
	}
}

// TestWorkerExitsOnFinalReport: the reply to the report that completes
// the job says so, and the worker exits on it without another request —
// a coordinator without -linger closes as soon as its job is done, so a
// further /lease would find nobody listening.
func TestWorkerExitsOnFinalReport(t *testing.T) {
	exps := testExps()
	store, err := Open(t.TempDir(), SpecFor(testSpec, false, exps), false)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	co, err := New(store, sweep.Enumerate(exps, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(co)
	var mu sync.Mutex
	var last string
	inner := srv.http.Handler
	srv.http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		last = r.URL.Path
		mu.Unlock()
		inner.ServeHTTP(w, r)
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := RunWorker(addr, WorkerOptions{Name: "solo", Resolve: testResolve(t)}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last != "/report" {
		t.Fatalf("worker's last request was %s, want the completing /report", last)
	}
}

// TestShutdownReplySurvivesClose is the linger exit path: the service
// owner closes the server as soon as POST /shutdown is signalled, and
// the reply to that very request must still arrive intact.
func TestShutdownReplySurvivesClose(t *testing.T) {
	store, co, srv, addr := startService(t, t.TempDir(), false, Options{})
	defer store.Close()
	for i := 0; i < 50; i++ {
		if i > 0 {
			srv = NewServer(co)
			var err error
			if addr, err = srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
		}
		closed := make(chan error, 1)
		go func(srv *Server) {
			<-srv.ShutdownRequested()
			closed <- srv.Close()
		}(srv)
		resp, err := http.Post("http://"+addr+"/shutdown", "application/json", nil)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		var reply heartbeatResponse
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil || !reply.OK {
			t.Fatalf("iteration %d: shutdown reply %+v, %v", i, reply, err)
		}
		if err := <-closed; err != nil {
			t.Fatalf("iteration %d: close: %v", i, err)
		}
	}
}

// TestWorkerEnumerationMismatch: a worker whose binary enumerates a
// different cell space must refuse to participate.
func TestWorkerEnumerationMismatch(t *testing.T) {
	dir := t.TempDir()
	store, _, srv, addr := startService(t, dir, false, Options{})
	defer store.Close()
	defer srv.Close()
	err := RunWorker(addr, WorkerOptions{
		Name: "skewed",
		Resolve: func(spec string, quick bool) ([]sweep.Experiment, error) {
			return testExps()[:1], nil // missing an experiment
		},
	})
	if err == nil {
		t.Fatal("worker with mismatched enumeration was admitted")
	}
}
