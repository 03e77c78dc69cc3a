package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/buildinfo"
	"repro/internal/guard"
	"repro/internal/sched"
)

// metrics holds the server's counters and renders the Prometheus text
// exposition format without any client-library dependency. Counters
// are process-lifetime (they restart at zero with the server, as
// Prometheus counters do); gauges are computed at scrape time from
// live server state and passed in through gaugeSet.
type metrics struct {
	mu            sync.Mutex
	jobsCompleted map[JobState]int64
	cellsExec     int64
	cellsReplayed int64
	cellsRetried  int64
	cellsQuar     int64
	cacheHits     int64
	cacheMisses   int64
	cacheCorrupt  int64
	// submissionsShed, jobsShed and jobsPoisoned are the guard layer's
	// counters: submissions refused by brownout, running jobs cancelled
	// into the shed state, and jobs quarantined at boot recovery.
	submissionsShed int64
	jobsShed        int64
	jobsPoisoned    int64
}

func newMetrics() *metrics {
	return &metrics{jobsCompleted: map[JobState]int64{}}
}

// observe folds one job-level progress snapshot into the cell
// counters. Snapshots are cumulative per job, so the delta against
// prev, the job's previous snapshot (zero for its first), is what the
// totals gain.
func (m *metrics) observe(prev, p sched.Progress) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cellsExec += max64(0, p.Executed-prev.Executed)
	m.cellsReplayed += max64(0, p.Replayed-prev.Replayed)
	m.cellsRetried += max64(0, p.Retried-prev.Retried)
	m.cellsQuar += max64(0, p.Quarantined-prev.Quarantined)
	m.cacheHits += max64(0, p.CacheHits-prev.CacheHits)
	m.cacheMisses += max64(0, p.CacheMisses-prev.CacheMisses)
	m.cacheCorrupt += max64(0, p.CacheCorrupt-prev.CacheCorrupt)
}

func max64(a, b int) int64 {
	if b > a {
		return int64(b)
	}
	return int64(a)
}

// jobFinished bumps the terminal-state counter.
func (m *metrics) jobFinished(state JobState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsCompleted[state]++
}

// guardSubmissionShed counts a submission refused by brownout.
func (m *metrics) guardSubmissionShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submissionsShed++
}

// guardShed counts a running job cancelled into the shed state.
func (m *metrics) guardShed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsShed++
}

// guardPoisoned counts a job quarantined at boot recovery.
func (m *metrics) guardPoisoned() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobsPoisoned++
}

// gaugeSet carries the scrape-time gauges the server computes from
// its live state.
type gaugeSet struct {
	jobsByState     map[JobState]int
	queueDepth      int
	runningJobs     int
	cellsPerSec     float64
	storageDegraded int
	cacheDegraded   bool
	draining        bool
	brownoutLevel   guard.Level
	heapBytes       uint64
}

// jobStates is the fixed label universe, so every scrape exposes
// every series (absent states read 0, not missing).
var jobStates = []JobState{
	StateQueued, StateRunning, StateDone, StateDegraded, StateFailed, StateCancelled,
	StateDeadlineExceeded, StateStalled, StatePoisoned, StateShed,
}

// terminalStates is the label universe of jobs_completed_total.
var terminalStates = []JobState{
	StateDone, StateDegraded, StateFailed, StateCancelled,
	StateDeadlineExceeded, StateStalled, StatePoisoned,
}

// render writes the exposition. Families appear in a fixed order with
// HELP/TYPE headers; values use Go's shortest-roundtrip float format,
// which the Prometheus text parser accepts.
func (m *metrics) render(w io.Writer, g gaugeSet) {
	m.mu.Lock()
	completed := make(map[JobState]int64, len(m.jobsCompleted))
	for k, v := range m.jobsCompleted {
		completed[k] = v
	}
	cellsExec, cellsReplayed := m.cellsExec, m.cellsReplayed
	cellsRetried, cellsQuar := m.cellsRetried, m.cellsQuar
	cacheHits, cacheMisses, cacheCorrupt := m.cacheHits, m.cacheMisses, m.cacheCorrupt
	submissionsShed, jobsShed, jobsPoisoned := m.submissionsShed, m.jobsShed, m.jobsPoisoned
	m.mu.Unlock()

	head := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	head("mcmutants_jobs", "Jobs currently tracked, by lifecycle state.", "gauge")
	for _, st := range jobStates {
		fmt.Fprintf(w, "mcmutants_jobs{state=%q} %d\n", st, g.jobsByState[st])
	}
	head("mcmutants_jobs_completed_total", "Jobs that reached a terminal state since the server started.", "counter")
	for _, st := range terminalStates {
		fmt.Fprintf(w, "mcmutants_jobs_completed_total{state=%q} %d\n", st, completed[st])
	}
	head("mcmutants_queue_depth", "Jobs waiting in the FIFO queue.", "gauge")
	fmt.Fprintf(w, "mcmutants_queue_depth %d\n", g.queueDepth)
	head("mcmutants_running_jobs", "Jobs currently executing on the runner pool.", "gauge")
	fmt.Fprintf(w, "mcmutants_running_jobs %d\n", g.runningJobs)
	head("mcmutants_cells_executed_total", "Campaign cells executed since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cells_executed_total %d\n", cellsExec)
	head("mcmutants_cells_replayed_total", "Campaign cells replayed from checkpoints since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cells_replayed_total %d\n", cellsReplayed)
	head("mcmutants_cells_retried_total", "Cell retry attempts since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cells_retried_total %d\n", cellsRetried)
	head("mcmutants_cells_quarantined_total", "Cells skipped by the device circuit breaker since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cells_quarantined_total %d\n", cellsQuar)
	head("mcmutants_cells_per_second", "Aggregate execution throughput across running jobs.", "gauge")
	fmt.Fprintf(w, "mcmutants_cells_per_second %s\n", num(g.cellsPerSec))
	head("mcmutants_cache_hits_total", "Cells served from the result cache since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cache_hits_total %d\n", cacheHits)
	head("mcmutants_cache_misses_total", "Result-cache consultations that found no entry since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cache_misses_total %d\n", cacheMisses)
	head("mcmutants_cache_corrupt_total", "Result-cache entries that failed verification and were quarantined since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_cache_corrupt_total %d\n", cacheCorrupt)
	head("mcmutants_cache_degraded", "1 while the shared result cache is degraded to pass-through on a storage failure.", "gauge")
	cd := 0
	if g.cacheDegraded {
		cd = 1
	}
	fmt.Fprintf(w, "mcmutants_cache_degraded %d\n", cd)
	head("mcmutants_storage_degraded_jobs", "Jobs whose checkpoint degraded to in-memory on a storage failure.", "gauge")
	fmt.Fprintf(w, "mcmutants_storage_degraded_jobs %d\n", g.storageDegraded)
	head("mcmutants_draining", "1 while the server is draining for shutdown.", "gauge")
	b := 0
	if g.draining {
		b = 1
	}
	fmt.Fprintf(w, "mcmutants_draining %d\n", b)
	head("mcmutants_guard_brownout_level", "Memory brownout level: 0 ok, 1 soft (drain paused, submissions shed), 2 hard (running jobs shed).", "gauge")
	fmt.Fprintf(w, "mcmutants_guard_brownout_level %d\n", int(g.brownoutLevel))
	head("mcmutants_guard_heap_bytes", "Live heap footprint at the last guard sample.", "gauge")
	fmt.Fprintf(w, "mcmutants_guard_heap_bytes %d\n", g.heapBytes)
	head("mcmutants_guard_submissions_shed_total", "Submissions refused with 429 by the memory brownout since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_guard_submissions_shed_total %d\n", submissionsShed)
	head("mcmutants_guard_jobs_shed_total", "Running jobs cancelled into the shed state by the hard watermark since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_guard_jobs_shed_total %d\n", jobsShed)
	head("mcmutants_guard_jobs_poisoned_total", "Jobs quarantined as poisoned at boot recovery since the server started.", "counter")
	fmt.Fprintf(w, "mcmutants_guard_jobs_poisoned_total %d\n", jobsPoisoned)
	bi := buildinfo.Get()
	head("mcmutants_build_info", "Build identity of this server; the value is always 1.", "gauge")
	fmt.Fprintf(w, "mcmutants_build_info{version=%q,revision=%q,goversion=%q} 1\n",
		bi.Version, bi.Revision, bi.GoVersion)
}
