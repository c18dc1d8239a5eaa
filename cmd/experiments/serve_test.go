package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gncg/internal/coord"
	"gncg/internal/sweep"
)

// refServe computes the uninterrupted unsharded reference for the cheap
// selection: the canonical JSON plus every wide CSV, the exact bytes any
// serve run — however crashed and resumed — must reproduce.
func refServe(t *testing.T) (refJSON string, refWide map[string]string) {
	t.Helper()
	exps := selectCheap(t)
	ref, err := sweep.Run(exps, sweep.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ref.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	refJSON = buf.String()
	refWide = map[string]string{}
	for _, w := range ref.WideTables() {
		var wb bytes.Buffer
		if err := w.Table.EncodeCSV(&wb); err != nil {
			t.Fatal(err)
		}
		refWide[w.Experiment] = wb.String()
	}
	return refJSON, refWide
}

func checkWide(t *testing.T, dir string, refWide map[string]string) {
	t.Helper()
	for name, want := range refWide {
		got, err := os.ReadFile(filepath.Join(dir, name+".csv"))
		if err != nil {
			t.Fatalf("wide CSV for %s: %v", name, err)
		}
		if string(got) != want {
			t.Fatalf("wide CSV for %s differs from unsharded run", name)
		}
	}
}

// TestServeSubcommand drives a clean work-stealing service run end to
// end through the CLI surface: serveMain launches real `work` shard
// subprocesses (this test binary in child mode) over loopback HTTP, and
// the merged output must be byte-identical to the plain unsharded run.
func TestServeSubcommand(t *testing.T) {
	t.Setenv("GNCG_EXPERIMENTS_CHILD", "1")
	refJSON, refWide := refServe(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	wideDir := filepath.Join(dir, "wide")
	var stderr bytes.Buffer
	code := serveMain([]string{
		"-job", filepath.Join(dir, "job"), "-shards", "2", "-quick",
		"-run", cheapSelection, "-out", out, "-wide", wideDir,
	}, &stderr)
	if code != 0 {
		t.Fatalf("serveMain exited %d: %s", code, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != refJSON {
		t.Fatal("serve output differs from unsharded run")
	}
	checkWide(t, wideDir, refWide)
	// The journal must carry every cell verbatim (the nightly gate diffs
	// it against the full output).
	if _, err := os.Stat(filepath.Join(dir, "job", "journal.jsonl")); err != nil {
		t.Fatal(err)
	}
}

// TestServeKillResume is the CLI crash drill: a real serve subprocess is
// SIGKILLed mid-job with cells journaled but the job incomplete, then
// `serve -resume` (inheriting selection and quick from the journal
// header) finishes the remainder. Output must be byte-identical to the
// uninterrupted unsharded run, and the resumed coordinator must start
// from the journaled progress instead of recomputing.
func TestServeKillResume(t *testing.T) {
	t.Setenv("GNCG_EXPERIMENTS_CHILD", "1")
	refJSON, refWide := refServe(t)
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "job")

	// Phase 1: a coordinator with no local shards — progress happens only
	// when we make it, so the kill window is deterministic.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var serveLog bytes.Buffer
	cmd := exec.Command(exe, "serve", "-job", jobDir, "-shards", "0",
		"-quick", "-run", cheapSelection, "-out", filepath.Join(dir, "never.json"))
	cmd.Stderr = &serveLog
	cmd.Stdout = &serveLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	addr := waitForAddr(t, jobDir, &serveLog)

	// Stage partial progress through the real lease protocol: an external
	// worker with a 2-lease budget journals a few cells and exits.
	if err := coord.RunWorker(addr, coord.WorkerOptions{
		Name: "stager", Resolve: resolveSelection, MaxLeases: 2, Batch: 2,
	}); err != nil {
		t.Fatal(err)
	}

	// The /status endpoint of the live subprocess must show a genuinely
	// partial running job before we pull the trigger.
	st := getStatus(t, addr)
	if st.State != "running" || st.Progress.Done == 0 || st.Progress.Done >= st.Job.Cells {
		t.Fatalf("staged status not mid-run: %+v", st)
	}
	staged := st.Progress.Done

	// SIGKILL: no shutdown hooks, no flushing beyond what Append already
	// fsynced. The flock dies with the process.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Phase 2: resume. Selection and -quick are inherited from the
	// journal header — passing them again is deliberately omitted.
	out := filepath.Join(dir, "resumed.json")
	wideDir := filepath.Join(dir, "wide")
	var stderr bytes.Buffer
	code := serveMain([]string{
		"-job", jobDir, "-resume", "-shards", "2",
		"-out", out, "-wide", wideDir,
	}, &stderr)
	if code != 0 {
		t.Fatalf("resume exited %d: %s", code, stderr.String())
	}
	// The resumed coordinator announces the inherited job with the
	// journaled progress intact.
	want := regexp.MustCompile(fmt.Sprintf(`\(%d cells, %d done\)`, st.Job.Cells, staged))
	if !want.MatchString(stderr.String()) {
		t.Fatalf("resume did not start from %d journaled cells:\n%s", staged, stderr.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != refJSON {
		t.Fatal("crash/resume output differs from uninterrupted unsharded run")
	}
	checkWide(t, wideDir, refWide)
	// Resume compacted the crashed journal into a snapshot, which is the
	// canonical encoding of the cells it held.
	snap, err := os.ReadFile(filepath.Join(jobDir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	snapSet, err := sweep.DecodeJSON(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(snapSet.Cells) != staged {
		t.Fatalf("snapshot holds %d cells, crashed run had journaled %d", len(snapSet.Cells), staged)
	}
}

// TestServeExternalWorkerExitsCleanly: a serve with no local shards and
// no -linger exits as soon as the job completes. The external worker
// that reports the last cell must exit cleanly alongside it instead of
// chasing the closed coordinator with another lease, and the output must
// be byte-identical to the unsharded run.
func TestServeExternalWorkerExitsCleanly(t *testing.T) {
	t.Setenv("GNCG_EXPERIMENTS_CHILD", "1")
	refJSON, _ := refServe(t)
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "job")
	out := filepath.Join(dir, "out.json")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var serveLog bytes.Buffer
	cmd := exec.Command(exe, "serve", "-job", jobDir, "-shards", "0",
		"-quick", "-run", cheapSelection, "-out", out)
	cmd.Stderr = &serveLog
	cmd.Stdout = &serveLog
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	addr := waitForAddr(t, jobDir, &serveLog)
	if err := coord.RunWorker(addr, coord.WorkerOptions{Name: "external", Resolve: resolveSelection}); err != nil {
		t.Fatalf("external worker: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve: %v\n%s", err, serveLog.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != refJSON {
		t.Fatal("serve output differs from unsharded run")
	}
}

// TestServeArgErrors covers the CLI guard rails: a job dir is mandatory,
// and resuming under a different selection than the journal header fails
// loudly instead of mixing runs.
func TestServeArgErrors(t *testing.T) {
	var stderr bytes.Buffer
	if code := serveMain(nil, &stderr); code != 2 {
		t.Fatalf("serve without -job exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-job") {
		t.Fatalf("missing-job diagnostic:\n%s", stderr.String())
	}

	// Seed a job dir with one selection, then try to resume another.
	t.Setenv("GNCG_EXPERIMENTS_CHILD", "1")
	dir := t.TempDir()
	stderr.Reset()
	if code := serveMain([]string{"-job", dir, "-shards", "1", "-quick", "-run", "fig1"}, &stderr); code != 0 {
		t.Fatalf("seeding run exited %d: %s", code, stderr.String())
	}
	stderr.Reset()
	if code := serveMain([]string{"-job", dir, "-resume", "-run", "thm20", "-quick"}, &stderr); code != 1 {
		t.Fatalf("resume with mismatched selection exited %d, want 1:\n%s", code, stderr.String())
	}
	// Reopening without -resume must also refuse.
	stderr.Reset()
	if code := serveMain([]string{"-job", dir, "-run", "fig1", "-quick"}, &stderr); code != 1 {
		t.Fatalf("reopen without -resume exited %d, want 1:\n%s", code, stderr.String())
	}
}

func waitForAddr(t *testing.T, jobDir string, log *bytes.Buffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := os.ReadFile(filepath.Join(jobDir, "status.addr"))
		if err == nil && len(bytes.TrimSpace(raw)) > 0 {
			return string(bytes.TrimSpace(raw))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("serve subprocess never wrote status.addr; log:\n%s", log.String())
	return ""
}

func getStatus(t *testing.T, addr string) coord.Status {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st coord.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}
