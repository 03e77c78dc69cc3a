// Package serve turns the campaign workbench into a long-running
// multi-tenant service: an HTTP API accepts campaign and tuning specs
// as JSON, validates them against the device fleet and suite, and
// executes them on a bounded job queue drained by a runner pool built
// on the deterministic scheduler.
//
// Jobs are idempotent by construction. A job's identity is derived
// from the scheduler spec manifest of the campaign it would run plus
// the execution parameters that do not appear in the cell grid
// (iterations, environment presets, driver defects), so resubmitting
// the same spec returns the existing job instead of queueing a
// duplicate. Job records, checkpoints and reports live under a state
// directory and are written atomically; a server restarted over the
// same directory requeues interrupted jobs and resumes them from
// their checkpoints, producing artifacts byte-identical to an
// uninterrupted run — and byte-identical to the same spec run through
// the local `mcmutants campaign`/`tune` verbs.
package serve

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/sched"
)

// JobState is a job's position in its lifecycle. Queued and running
// are live; done, degraded, failed and cancelled are terminal.
type JobState string

const (
	// StateQueued: accepted and waiting for a runner. A job returns to
	// queued when a server shutdown drains it mid-run — it resumes from
	// its checkpoint on the next boot.
	StateQueued JobState = "queued"
	// StateRunning: a runner is executing the job's campaign.
	StateRunning JobState = "running"
	// StateDone: completed with every cell producing data and the
	// checkpoint durable. The report artifact is available.
	StateDone JobState = "done"
	// StateDegraded: completed with usable results, but some cells
	// produced no data (device failures, quarantine) or the checkpoint
	// degraded to in-memory on a persistent storage failure. The report
	// artifact is available; this is the serve analogue of exit code 2.
	StateDegraded JobState = "degraded"
	// StateFailed: the campaign aborted with a fatal error; no report.
	StateFailed JobState = "failed"
	// StateCancelled: cancelled via DELETE and drained gracefully.
	// Completed cells remain checkpointed; resubmitting the same spec
	// requeues the job and resumes where it stopped.
	StateCancelled JobState = "cancelled"
	// StateDeadlineExceeded: the job's wall-clock budget ran out and it
	// drained gracefully at a cell boundary. Terminal like failed;
	// resubmission re-queues and resumes from the checkpoint.
	StateDeadlineExceeded JobState = "deadline_exceeded"
	// StateStalled: the watchdog saw no counter movement for the job's
	// stall budget and drained it. Terminal like failed; resubmission
	// re-queues and resumes from the checkpoint.
	StateStalled JobState = "stalled"
	// StatePoisoned: the job was found running at boot recovery more
	// times than the server's poison cap — each boot means the previous
	// process died while this job ran, so past the cap it is presumed to
	// be crashing the server and is quarantined in this dead-letter
	// state instead of re-queued. It stays listed and inspectable;
	// resubmitting the same spec gives it a fresh set of boots.
	StatePoisoned JobState = "poisoned"
	// StateShed: cancelled by the memory-watermark brownout to relieve
	// pressure. Not terminal — the job is parked, holding its checkpoint
	// and its place in the per-client count, and re-queues automatically
	// when pressure clears (or at the next boot).
	StateShed JobState = "shed"
)

// Terminal reports whether the state is an end state.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateDegraded, StateFailed, StateCancelled,
		StateDeadlineExceeded, StateStalled, StatePoisoned:
		return true
	}
	return false
}

// JobSpec is the client-facing description of one campaign or tuning
// run — the JSON body of POST /api/v1/jobs. Zero-valued fields take
// the same defaults as the corresponding CLI flags, so a spec and the
// equivalent `mcmutants campaign`/`tune` invocation produce
// byte-identical artifacts.
type JobSpec struct {
	// Kind selects the workload: "conformance", "evaluate", "tune" or
	// "correlate" (the Table 4 study, sized by TuneEnvs and Iters; it
	// takes no devices, envs or fence bug).
	Kind string `json:"kind"`
	// Devices is the fleet subset; empty means every Table 3 device
	// (core.KindDefaults fills it for conformance and evaluate; a tune
	// dataset records the list as given, as the CLI's does).
	Devices []string `json:"devices,omitempty"`
	// Seed is the campaign seed; 0 means the kind's default
	// (core.KindDefaults: 1 for campaigns, 2023 for tuning).
	Seed uint64 `json:"seed,omitempty"`

	// Envs lists environment presets for campaign kinds; empty means
	// ["pte", "site"]. Conformance uses the first, evaluate all.
	Envs []string `json:"envs,omitempty"`
	// Iters is kernel launches per cell for campaign kinds; 0 means 10
	// (4 for correlate).
	Iters int `json:"iters,omitempty"`
	// FenceBug injects the fence-dropping driver on every platform.
	// A tune spec carrying Envs, Iters or FenceBug is refused.
	FenceBug bool `json:"fence_bug,omitempty"`

	// TuneEnvs, SiteIters and PTEIters size a tuning run; 0 means the
	// CLI defaults (12 environments, 50 SITE / 8 PTE iterations). A
	// correlate spec takes TuneEnvs as its random environments (0 means
	// 24). A campaign-kind spec carrying any of them is refused.
	TuneEnvs  int `json:"tune_envs,omitempty"`
	SiteIters int `json:"site_iters,omitempty"`
	PTEIters  int `json:"pte_iters,omitempty"`

	// Distributed runs the job as a campaign coordinator: cells are
	// leased to `mcmutants work` processes over the server's /dist/v1/
	// API instead of executing on the runner. Requires the server's
	// distributed mode (Config.EnableDist). The artifact is
	// byte-identical to a local run of the same spec.
	Distributed bool `json:"distributed,omitempty"`

	// WallDeadline, CellTimeout and StallTimeout are the job's requested
	// execution budgets (duration strings, e.g. "30m"): end-to-end wall
	// clock, per-cell-attempt bound, and the longest the cumulative
	// progress counters may sit still. Zero means the server's
	// configured default; requests are validated against the server's
	// caps at admission. Budgets are enforcement-only — a run that stays
	// inside them is byte-identical to an unbudgeted run — and they are
	// deliberately left out of normalize, so a budget-free spec keeps
	// the job identity it had before budgets existed.
	WallDeadline Duration `json:"wall_deadline,omitempty"`
	CellTimeout  Duration `json:"cell_timeout,omitempty"`
	StallTimeout Duration `json:"stall_timeout,omitempty"`
}

// Duration is a time.Duration that travels as a JSON duration string
// ("90s", "1h30m"); it also accepts a bare number of nanoseconds, the
// encoding a naive client produces for time.Duration.
type Duration time.Duration

// MarshalJSON renders the canonical duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or a number of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("invalid duration %s", b)
	}
	*d = Duration(ns)
	return nil
}

// budget folds the spec's requested budgets into the guard shape.
func (js *JobSpec) budget() guard.Budget {
	return guard.Budget{
		WallDeadline: time.Duration(js.WallDeadline),
		CellTimeout:  time.Duration(js.CellTimeout),
		StallTimeout: time.Duration(js.StallTimeout),
	}
}

// workSpec renders the spec as the core.WorkSpec the equivalent
// `mcmutants campaign` or `tune` invocation builds, with the job's
// effective cell timeout. Both sides derive descriptors and cache
// salts from it, so a serve job, the CLI run and any distributed
// worker address identical cache entries.
func (js *JobSpec) workSpec(cellTimeout time.Duration) core.WorkSpec {
	return core.WorkSpec{
		Kind:          js.Kind,
		Devices:       js.Devices,
		Envs:          js.Envs,
		Iters:         js.Iters,
		Seed:          js.Seed,
		FenceBug:      js.FenceBug,
		CellTimeoutMS: core.DurationMS(cellTimeout),
		TuneEnvs:      js.TuneEnvs,
		SiteIters:     js.SiteIters,
		PTEIters:      js.PTEIters,
	}
}

// normalize fills the kind's defaults (core.KindDefaults, which the
// CLI flags share) in place. It runs before validation and before the
// job ID is derived, so an explicit spec and its defaulted shorthand
// are the same job.
func (js *JobSpec) normalize() {
	def := core.KindDefaults(js.Kind)
	if len(js.Devices) == 0 {
		js.Devices = def.Devices
	}
	for i, d := range js.Devices {
		js.Devices[i] = strings.TrimSpace(d)
	}
	js.Seed = cmp.Or(js.Seed, def.Seed)
	if len(js.Envs) == 0 {
		js.Envs = def.Envs
	}
	for i, e := range js.Envs {
		js.Envs[i] = strings.TrimSpace(e)
	}
	js.Iters = cmp.Or(js.Iters, def.Iters)
	js.TuneEnvs = cmp.Or(js.TuneEnvs, def.TuneEnvs)
	js.SiteIters = cmp.Or(js.SiteIters, def.SiteIters)
	js.PTEIters = cmp.Or(js.PTEIters, def.PTEIters)
}

// jobID derives the idempotency key: the scheduler spec manifest
// (which pins campaign name, seed and the ordered cell grid) combined
// with the canonical JSON of the normalized spec, covering execution
// parameters the grid cannot see — iterations, environment presets,
// injected driver defects. Two submissions collide exactly when they
// would run the same cells the same way.
func jobID(manifest string, js JobSpec) string {
	h := sha256.New()
	io.WriteString(h, manifest)
	h.Write([]byte{0})
	b, err := json.Marshal(js)
	if err != nil {
		// A JobSpec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshal job spec: %v", err))
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// Summary condenses a job's campaign outcome: the settled counters of
// the final progress snapshot plus fleet health and storage verdicts.
type Summary struct {
	Cells       int `json:"cells"`
	Done        int `json:"done"`
	Executed    int `json:"executed"`
	Replayed    int `json:"replayed"`
	Failed      int `json:"failed"`
	Quarantined int `json:"quarantined"`
	Interrupted int `json:"interrupted,omitempty"`
	Retried     int `json:"retried,omitempty"`

	// CacheHits, CacheMisses and CacheCorrupt are the job's result-cache
	// traffic; CacheDegraded reports the cache fell back to pass-through.
	// Cache state is observability only: it never changes the job's
	// terminal state or its artifact.
	CacheHits     int  `json:"cache_hits,omitempty"`
	CacheMisses   int  `json:"cache_misses,omitempty"`
	CacheCorrupt  int  `json:"cache_corrupt,omitempty"`
	CacheDegraded bool `json:"cache_degraded,omitempty"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`
	CellsPerSec    float64 `json:"cells_per_sec"`

	Health          []sched.DeviceHealth `json:"health,omitempty"`
	StorageDegraded bool                 `json:"storage_degraded,omitempty"`
	StorageErr      string               `json:"storage_err,omitempty"`
}

// summaryOf folds a job-level progress snapshot into a Summary.
func summaryOf(p sched.Progress) *Summary {
	return &Summary{
		Cells:           p.Total,
		Done:            p.Done,
		Executed:        p.Executed,
		Replayed:        p.Replayed,
		Failed:          p.Failed,
		Quarantined:     p.Quarantined,
		Interrupted:     p.Interrupted,
		Retried:         p.Retried,
		CacheHits:       p.CacheHits,
		CacheMisses:     p.CacheMisses,
		CacheCorrupt:    p.CacheCorrupt,
		CacheDegraded:   p.CacheDegraded,
		ElapsedSeconds:  p.ElapsedSeconds,
		CellsPerSec:     p.CellsPerSec,
		Health:          p.Health,
		StorageDegraded: p.StorageDegraded,
	}
}

// Job is one tracked submission: the API's job resource and the
// record persisted under <state>/jobs/<id>.json.
type Job struct {
	ID     string   `json:"id"`
	Spec   JobSpec  `json:"spec"`
	Client string   `json:"client,omitempty"`
	State  JobState `json:"state"`
	// Error carries the fatal cause when State is failed.
	Error string `json:"error,omitempty"`
	// Cells is the planned cell count; Manifest the combined scheduler
	// spec manifest the job ID derives from.
	Cells    int    `json:"cells"`
	Manifest string `json:"manifest"`
	// Resumes counts re-entries into the queue: restart recovery after
	// a shutdown or crash, and resubmission after failure/cancellation.
	Resumes int `json:"resumes,omitempty"`
	// BootIncarnations counts boots that found this job running — each
	// one means the previous process died mid-run with this job active.
	// Past the server's poison cap the job is quarantined (StatePoisoned)
	// instead of re-queued; resubmission resets the count.
	BootIncarnations int `json:"boot_incarnations,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Summary is the campaign outcome, set on terminal states (and
	// on a drained-back-to-queued job, covering the partial run).
	Summary *Summary `json:"summary,omitempty"`
}

// clone returns an independent copy safe to hand across goroutines.
// Slices in Spec and Summary are replaced wholesale on update, never
// mutated in place, so a shallow copy of those is sound.
func (j *Job) clone() *Job {
	c := *j
	if j.StartedAt != nil {
		t := *j.StartedAt
		c.StartedAt = &t
	}
	if j.FinishedAt != nil {
		t := *j.FinishedAt
		c.FinishedAt = &t
	}
	return &c
}
