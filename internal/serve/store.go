package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/diskio"
)

// store is the durable job registry. Every job record is one JSON
// file under <dir>/jobs/, published atomically through the diskio
// seam, so a crash at any instant leaves either the previous record
// or the new one. The in-memory index is the source of truth while
// the server runs; the files exist so a restarted server can rebuild
// it and resume interrupted work.
type store struct {
	fs  diskio.FS
	dir string

	mu   sync.Mutex
	jobs map[string]*Job
}

// jobsDir, ckptDir and reportsDir partition the state directory.
const (
	jobsDir    = "jobs"
	ckptDir    = "ckpt"
	reportsDir = "reports"
)

// openStore opens (creating if needed) the state directory and loads
// every persisted job record. Records that fail to decode are skipped
// with a warning through warnf — the atomic writer should make that
// impossible, but a tolerant boot beats refusing to serve the healthy
// majority.
func openStore(fsys diskio.FS, dir string, warnf func(format string, args ...any)) (*store, error) {
	for _, sub := range []string{jobsDir, ckptDir, reportsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	st := &store{fs: fsys, dir: dir, jobs: map[string]*Job{}}
	entries, err := os.ReadDir(filepath.Join(dir, jobsDir))
	if err != nil {
		return nil, fmt.Errorf("serve: scan jobs: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, jobsDir, e.Name())
		j, err := st.loadJob(path)
		if err != nil {
			warnf("serve: skipping unreadable job record %s: %v", path, err)
			continue
		}
		st.jobs[j.ID] = j
	}
	return st, nil
}

// loadJob reads one persisted record through the filesystem seam.
func (st *store) loadJob(path string) (*Job, error) {
	f, err := st.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	if j.ID == "" {
		return nil, fmt.Errorf("record has no id")
	}
	return &j, nil
}

// jobPath is the record file for a job ID.
func (st *store) jobPath(id string) string {
	return filepath.Join(st.dir, jobsDir, id+".json")
}

// checkpointPath is the scheduler checkpoint for a job: one file, as
// every kind runs one campaign.
func (st *store) checkpointPath(id string) string {
	return filepath.Join(st.dir, ckptDir, id)
}

// reportPath is the published artifact for a completed job.
func (st *store) reportPath(id string) string {
	return filepath.Join(st.dir, reportsDir, id+".json")
}

// persistLocked writes j's record atomically. Callers hold st.mu.
func (st *store) persistLocked(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return err
	}
	return diskio.WriteFileAtomic(st.fs, st.jobPath(j.ID), append(data, '\n'))
}

// put registers a new job and persists its record.
func (st *store) put(j *Job) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.persistLocked(j); err != nil {
		return err
	}
	st.jobs[j.ID] = j.clone()
	return nil
}

// drop removes a job from the index and deletes its record — the
// rollback path when admission fails after the record was written.
func (st *store) drop(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.jobs, id)
	st.fs.Remove(st.jobPath(id))
}

// get returns a copy of the job, if tracked.
func (st *store) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// update applies fn to a copy of the job under the store lock,
// persists the copy, and installs it into the index only once the
// write succeeded — a persist failure leaves both memory and disk on
// the previous record instead of letting them diverge (an in-memory
// "running" job with no runner would otherwise be stuck until
// restart).
func (st *store) update(id string, fn func(*Job)) (*Job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %s", id)
	}
	next := j.clone()
	fn(next)
	if err := st.persistLocked(next); err != nil {
		return nil, err
	}
	st.jobs[id] = next
	return next.clone(), nil
}

// updateForce is update for terminal transitions: the new record is
// installed in memory whether or not the persist succeeds, and the
// persist error is returned alongside it. Memory deliberately runs
// ahead of disk here — the runner is done with the job, so clients
// must see the terminal state even on a dead disk, and a stale
// non-terminal record on disk is safe: boot recovery re-queues it and
// the job resumes (or re-completes) from its checkpoint.
func (st *store) updateForce(id string, fn func(*Job)) (*Job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown job %s", id)
	}
	next := j.clone()
	fn(next)
	st.jobs[id] = next
	if err := st.persistLocked(next); err != nil {
		return next.clone(), err
	}
	return next.clone(), nil
}

// list returns copies of every job, oldest submission first (ties
// broken by ID so the order is total).
func (st *store) list() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.Before(out[b].SubmittedAt)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// countByState tallies jobs per lifecycle state (the /metrics gauge).
func (st *store) countByState() map[JobState]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[JobState]int{}
	for _, j := range st.jobs {
		out[j.State]++
	}
	return out
}

// inFlight counts a client's live (queued or running) jobs — the
// admission-control denominator for the per-client cap.
func (st *store) inFlight(client string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.Client == client && !j.State.Terminal() {
			n++
		}
	}
	return n
}

// storageDegradedCount counts jobs whose campaigns finished with a
// degraded checkpoint (the /metrics storage gauge).
func (st *store) storageDegradedCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.Summary != nil && j.Summary.StorageDegraded {
			n++
		}
	}
	return n
}
