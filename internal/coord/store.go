// Package coord turns the sweep engine into a resumable, work-stealing
// service: a durable job store of cells on disk, a coordinator that
// leases cell ranges to shard workers over loopback HTTP, and a status
// endpoint exposing live progress.
//
// The correctness contract is inherited from internal/sweep: cells are a
// pure, deterministic function of their global sequence number (for a
// fixed selection and quick flag), so "replay a cell" and "reuse its
// journaled result" are interchangeable. After any interleaving of shard
// or coordinator crashes and resumes, the assembled output is
// byte-identical to a single-process unsharded run — the job store keeps
// each finished cell's canonical bytes (sweep.CellJSON), and final
// assembly is just decode + merge + re-encode, the same round trip the
// shard merge workflow already pins.
package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"gncg/internal/sweep"
)

// JobSpec identifies a sweep job: the experiment selection, the quick
// flag and the shape of the resulting enumeration. A journal written
// under one spec refuses to resume under another — a resumed run that
// enumerated different cells would silently corrupt the byte-identity
// contract, so the mismatch fails loudly instead.
type JobSpec struct {
	Spec  string `json:"spec"`
	Quick bool   `json:"quick"`
	Cells int    `json:"cells"`
	// Fingerprint pins the per-experiment cell partition of the
	// enumeration (name:count pairs in order), catching binary skew that
	// happens to preserve the total count.
	Fingerprint string `json:"fingerprint"`
}

// SpecFor builds the JobSpec of a resolved selection by enumerating it
// exactly as Run/RunSeqs will.
func SpecFor(spec string, quick bool, exps []sweep.Experiment) JobSpec {
	refs := sweep.Enumerate(exps, quick)
	var fp bytes.Buffer
	last, count := "", 0
	flush := func() {
		if count > 0 {
			fmt.Fprintf(&fp, "%s:%d;", last, count)
		}
	}
	for _, r := range refs {
		if r.Experiment != last {
			flush()
			last, count = r.Experiment, 0
		}
		count++
	}
	flush()
	return JobSpec{Spec: spec, Quick: quick, Cells: len(refs), Fingerprint: fp.String()}
}

const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"
	lockName     = "lock"
)

// journalLine is the decoded form of one journal entry. Done lines carry
// the finished cell's canonical bytes verbatim under "cell" (kept raw so
// byte-identity never depends on a decode/re-encode cycle mid-journal);
// lease/expire lines are a volatile audit trail ignored on load.
type journalLine struct {
	Type    string          `json:"type"`
	Job     *JobSpec        `json:"job,omitempty"`
	Shard   string          `json:"shard,omitempty"`
	LeaseMS int64           `json:"lease_ms,omitempty"`
	Steals  int             `json:"steals,omitempty"`
	ID      int64           `json:"id,omitempty"`
	Cells   []int           `json:"cells,omitempty"`
	Cell    json.RawMessage `json:"cell,omitempty"`
}

// Done is one finished cell plus the scheduling telemetry journaled with
// it. Telemetry lives in the journal wrapper, never inside the cell
// bytes, so it cannot perturb the byte-identity contract (and
// ci/check_shards.py masks it before unwrapping journal lines).
type Done struct {
	Cell    sweep.CellResult
	Shard   string
	LeaseMS int64 // wall-clock ms the finishing lease was held
	Steals  int   // times the cell's earlier leases expired and were re-issued
}

// Store is the durable job store: an append-only JSONL journal plus a
// compacted snapshot, holding every finished cell's canonical bytes.
// One process owns a store at a time (flock); a SIGKILLed owner's lock
// dies with it, so resume never needs manual cleanup.
type Store struct {
	dir  string
	spec JobSpec

	mu      sync.Mutex
	journal *os.File
	lockf   *os.File
	done    map[int][]byte // seq -> canonical cell bytes
	closed  bool
}

// ReadSpec peeks at the job header of an existing store directory
// without locking it. ok is false when the directory holds no journal —
// a fresh job. Callers use it to inherit the selection on -resume.
func ReadSpec(dir string) (spec JobSpec, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if os.IsNotExist(err) {
		return JobSpec{}, false, nil
	}
	if err != nil {
		return JobSpec{}, false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	if !sc.Scan() {
		return JobSpec{}, false, nil // empty journal: treat as fresh
	}
	var line journalLine
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Type != "job" || line.Job == nil {
		return JobSpec{}, false, fmt.Errorf("coord: %s does not start with a job header", journalName)
	}
	return *line.Job, true, nil
}

// Open creates or resumes the job store in dir. A directory already
// holding a journal requires resume=true and an identical JobSpec;
// opening folds any journaled cells into the snapshot (compaction), so a
// resumed journal starts at just the header. The store holds an
// exclusive flock on the directory for its lifetime.
func Open(dir string, spec JobSpec, resume bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lockf, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lockf.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lockf.Close()
		return nil, fmt.Errorf("coord: job dir %s is locked by another coordinator: %w", dir, err)
	}
	s := &Store{dir: dir, spec: spec, lockf: lockf, done: map[int][]byte{}}
	prev, exists, err := ReadSpec(dir)
	if err != nil {
		s.release()
		return nil, err
	}
	if exists {
		if !resume {
			s.release()
			return nil, fmt.Errorf("coord: job dir %s already holds a journal; pass -resume to continue it", dir)
		}
		if prev != spec {
			s.release()
			return nil, fmt.Errorf("coord: job spec mismatch: dir has {spec %q quick %t cells %d fp %q}, run wants {spec %q quick %t cells %d fp %q}",
				prev.Spec, prev.Quick, prev.Cells, prev.Fingerprint,
				spec.Spec, spec.Quick, spec.Cells, spec.Fingerprint)
		}
		if err := s.load(); err != nil {
			s.release()
			return nil, err
		}
	}
	// Compact: fold snapshot + journal into a fresh snapshot and a
	// header-only journal. On a fresh job this just writes the header.
	if err := s.compact(); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

func (s *Store) release() {
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	if s.lockf != nil {
		syscall.Flock(int(s.lockf.Fd()), syscall.LOCK_UN)
		s.lockf.Close()
		s.lockf = nil
	}
}

// Close releases the journal and the directory lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.release()
	return nil
}

// load reads the snapshot (if any) and the journal's done lines into the
// done map. A torn trailing journal line — the signature of a SIGKILL
// mid-append — is tolerated and dropped; garbage anywhere else is
// corruption and fails. Duplicate cells (a crash between snapshot and
// journal truncation during compaction) must agree byte-for-byte.
func (s *Store) load() error {
	snap, err := os.Open(filepath.Join(s.dir, snapshotName))
	if err == nil {
		rs, derr := sweep.DecodeJSON(snap)
		snap.Close()
		if derr != nil {
			return fmt.Errorf("coord: %s: %w", snapshotName, derr)
		}
		for _, c := range rs.Cells {
			if _, err := s.admit(c.Seq, sweep.CellJSON(c)); err != nil {
				return fmt.Errorf("coord: %s: %w", snapshotName, err)
			}
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f, err := os.Open(filepath.Join(s.dir, journalName))
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("coord: %s: %w", journalName, err)
	}
	for i, raw := range lines {
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var line journalLine
		if err := json.Unmarshal(raw, &line); err != nil {
			if i == len(lines)-1 {
				// Torn final append: the in-flight lease's loss, by design.
				continue
			}
			return fmt.Errorf("coord: %s line %d: corrupt entry: %v", journalName, i+1, err)
		}
		switch line.Type {
		case "job":
			if i != 0 {
				return fmt.Errorf("coord: %s line %d: stray job header", journalName, i+1)
			}
		case "done":
			cell, err := sweep.DecodeCellJSON(line.Cell)
			if err != nil {
				if i == len(lines)-1 {
					continue // torn cell payload in the final line
				}
				return fmt.Errorf("coord: %s line %d: %v", journalName, i+1, err)
			}
			// Re-encode: admits exactly the canonical bytes, whatever
			// whitespace the raw payload carried.
			if _, err := s.admit(cell.Seq, sweep.CellJSON(cell)); err != nil {
				return fmt.Errorf("coord: %s line %d: %w", journalName, i+1, err)
			}
		case "lease", "expire":
			// Volatile audit trail; leases do not survive their coordinator.
		default:
			return fmt.Errorf("coord: %s line %d: unknown entry type %q", journalName, i+1, line.Type)
		}
	}
	return nil
}

// admit records one done cell's canonical bytes, verifying agreement
// with any copy already held (cells are deterministic, so two legitimate
// copies are byte-equal; disagreement means mixed runs). It reports
// whether the cell is new.
func (s *Store) admit(seq int, canon []byte) (bool, error) {
	if seq < 0 || seq >= s.spec.Cells {
		return false, fmt.Errorf("cell seq %d out of range [0,%d)", seq, s.spec.Cells)
	}
	if have, ok := s.done[seq]; ok {
		if !bytes.Equal(have, canon) {
			return false, fmt.Errorf("cell seq %d journaled twice with different payloads", seq)
		}
		return false, nil
	}
	s.done[seq] = canon
	return true, nil
}

// compact writes every done cell into a fresh snapshot (canonical
// ResultSet JSON, atomically renamed into place) and resets the journal
// to a header-only file. Crash ordering is safe: the snapshot lands
// before the journal shrinks, and load deduplicates by byte-equality.
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.done) > 0 {
		rs, err := s.resultsLocked()
		if err != nil {
			return err
		}
		tmp := filepath.Join(s.dir, snapshotName+".tmp")
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		if err := rs.EncodeJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
			return err
		}
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	tmp := filepath.Join(s.dir, journalName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	header, err := json.Marshal(journalLine{Type: "job", Job: &s.spec})
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(header, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, journalName)); err != nil {
		f.Close()
		return err
	}
	s.journal = f
	return nil
}

// Compact folds the journal into the snapshot. Open does this
// automatically on resume; long-lived services may call it periodically.
func (s *Store) Compact() error { return s.compact() }

// Append journals finished cells (one fsynced write batch). Cells
// already done are skipped silently — late reports from a worker whose
// lease was stolen are legitimate duplicates of identical bytes — and
// a batch with no new cell writes and syncs nothing.
func (s *Store) Append(entries []Done) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("coord: store closed")
	}
	var buf bytes.Buffer
	for _, d := range entries {
		canon := sweep.CellJSON(d.Cell)
		fresh, err := s.admit(d.Cell.Seq, canon)
		if err != nil {
			return err
		}
		if !fresh {
			continue
		}
		// Telemetry keys precede "cell" so journal consumers can unwrap
		// the canonical payload by slicing to the final brace.
		fmt.Fprintf(&buf, `{"type": "done", "shard": %q, "lease_ms": %d, "steals": %d, "cell": %s}`+"\n",
			d.Shard, d.LeaseMS, d.Steals, canon)
	}
	if buf.Len() == 0 {
		return nil
	}
	if _, err := s.journal.Write(buf.Bytes()); err != nil {
		return err
	}
	return s.journal.Sync()
}

// Event journals a volatile lease/expire audit line. Best-effort: events
// are not part of the durability contract and are ignored on load.
func (s *Store) Event(typ string, id int64, shard string, cells []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	raw, err := json.Marshal(journalLine{Type: typ, ID: id, Shard: shard, Cells: cells})
	if err == nil {
		s.journal.Write(append(raw, '\n'))
	}
}

// Spec returns the job's identity.
func (s *Store) Spec() JobSpec { return s.spec }

// DoneSeqs returns the finished cells' sequence numbers in ascending
// order.
func (s *Store) DoneSeqs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]int, 0, len(s.done))
	for seq := range s.done {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs
}

// IsDone reports whether the cell with the given seq is checkpointed.
func (s *Store) IsDone(seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.done[seq]
	return ok
}

// CountDone returns the number of finished cells.
func (s *Store) CountDone() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.done)
}

// Results assembles the finished cells into a ResultSet in sequence
// order — the merged-so-far view while running, the complete set once
// CountDone == Spec().Cells.
func (s *Store) Results() (*sweep.ResultSet, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultsLocked()
}

func (s *Store) resultsLocked() (*sweep.ResultSet, error) {
	seqs := make([]int, 0, len(s.done))
	for seq := range s.done {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	rs := &sweep.ResultSet{Cells: make([]sweep.CellResult, 0, len(seqs))}
	for _, seq := range seqs {
		c, err := sweep.DecodeCellJSON(s.done[seq])
		if err != nil {
			return nil, fmt.Errorf("coord: stored cell %d: %w", seq, err)
		}
		rs.Cells = append(rs.Cells, c)
	}
	return rs, nil
}
