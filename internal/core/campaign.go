package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/diskio"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// CampaignOptions configures the scheduler behind the core workflows:
// parallelism, retry policy, checkpointing and progress streams. The
// zero value is a serial, checkpoint-free run. Every worker count
// yields identical scores and findings — cell RNG streams derive from
// the campaign seed and cell identity alone.
type CampaignOptions struct {
	// Workers bounds the scheduler's pool; < 1 means serial.
	Workers int
	// Retries and Backoff configure transient-failure handling per cell.
	Retries int
	Backoff time.Duration
	// CellTimeout bounds each cell attempt; expiry is an ordinary
	// permanent cell failure (retried, reported, breaker-visible), not a
	// campaign interruption. Zero means no per-cell bound.
	CellTimeout time.Duration
	// CheckpointPath, when non-empty, records completed cells as JSONL
	// so an interrupted campaign can resume.
	CheckpointPath string
	// Resume replays cells already in the checkpoint instead of
	// re-running them. Requires CheckpointPath.
	Resume bool
	// FsyncEvery tunes the checkpoint's bounded-loss durability policy:
	// the file is fsynced after every N recorded cells. 0 means
	// sched.DefaultFsyncEvery; negative syncs only at drain and close.
	FsyncEvery int
	// FS is the filesystem the checkpoint goes through; nil means the
	// real filesystem. Tests inject a fault model (diskio.FaultFS).
	FS diskio.FS
	// Collect switches the scheduler from fail-fast to collect: every
	// cell runs, and failed cells surface in the result (EnvScore
	// failures, error-carrying findings) instead of aborting the
	// campaign.
	Collect bool
	// Breaker, when non-nil, enables the per-device circuit breaker:
	// a device failing Threshold cells in a row is quarantined for
	// Cooldown cells and the campaign continues on the surviving fleet.
	// Implies Collect.
	Breaker *sched.BreakerOptions
	// Progress, when non-nil, receives one line as each cell starts.
	Progress func(string)
	// OnProgress, when non-nil, receives cumulative structured campaign
	// snapshots — one every ProgressEvery plus a final settled one
	// before the campaign returns (see sched.Progress). The serve
	// subsystem's SSE hub and metrics feed from this hook, and the CLI
	// prints each snapshot's String as its throughput line.
	OnProgress func(sched.Progress)
	// ProgressEvery is the OnProgress cadence; zero means
	// sched.DefaultProgressEvery.
	ProgressEvery time.Duration
	// Dist, when non-nil, runs the campaign distributed: no cell
	// executes in this process. A coordinator is registered on the hub,
	// worker processes lease cell ranges and deliver result segments,
	// and the merged report is byte-identical to a local run — split-
	// seed cell RNG makes results a pure function of (seed, cell key,
	// attempt), independent of which process executed the cell.
	// Distributed campaigns always run collect-style (there is no
	// fail-fast abort across workers); Workers, Retries, Backoff and
	// CellTimeout apply on the worker side via the descriptor, not
	// here.
	Dist *DistOptions
	// Cache, when non-nil, is the persistent result cache consulted
	// before each cell executes and published to after a cell succeeds.
	// CacheSalt must encode every workload parameter that lives outside
	// the spec — iterations, environments, fault model, retry policy;
	// in practice the canonical WorkSpec descriptor JSON (see
	// WorkSpec.CacheSalt) — so a key can never serve a result computed
	// under different parameters. Cache hits change nothing but time:
	// scores, findings and artifacts stay byte-identical to a cold run.
	// In distributed mode the cache is consulted on the worker side
	// (dist.SchedRunnerOptions), not here.
	Cache     sched.ResultCache
	CacheSalt string
}

// applyCampaignOptions populates the scheduler options from o. The
// returned closer must run once the campaign finishes; it closes the
// checkpoint, if any.
func applyCampaignOptions[R any](o CampaignOptions, spec sched.Spec, opts *sched.Options[R]) (func(), error) {
	opts.Workers = o.Workers
	opts.MaxRetries = o.Retries
	opts.Backoff = o.Backoff
	opts.CellTimeout = o.CellTimeout
	opts.Collect = o.Collect
	opts.Breaker = o.Breaker
	opts.OnProgress = o.OnProgress
	opts.ProgressEvery = o.ProgressEvery
	opts.Cache = o.Cache
	opts.CacheSalt = o.CacheSalt
	if o.Progress != nil {
		progress := o.Progress
		opts.OnCellStart = func(c sched.Cell) {
			progress(fmt.Sprintf("%s on %s", c.Key, c.Device))
		}
	}
	closer := func() {}
	if o.Resume && o.CheckpointPath == "" {
		return closer, fmt.Errorf("core: Resume requires CheckpointPath")
	}
	if o.CheckpointPath != "" {
		ck, err := sched.OpenCheckpointOpts(o.CheckpointPath, spec, o.Resume,
			sched.CheckpointOptions{FS: o.FS, FsyncEvery: o.FsyncEvery})
		if err != nil {
			return closer, err
		}
		opts.Checkpoint = ck
		closer = func() { ck.Close() }
	}
	return closer, nil
}

// CellFailure records one campaign cell that produced no usable data: a
// permanent device failure, or a cell the device circuit breaker
// quarantined. Failed cells are always reported, never dropped.
type CellFailure struct {
	// Key is the campaign cell key.
	Key string
	// Device is the cell's device short name.
	Device string
	// Err is the failure rendered as text.
	Err string
	// Quarantined marks breaker-skipped cells.
	Quarantined bool
	// Attempts counts executions, 0 when the cell never ran.
	Attempts int
}

// cellFailures extracts a report's failed cells in spec order.
// Interrupted cells are pending, not failed, and are excluded.
func cellFailures[R any](rep *sched.Report[R]) []CellFailure {
	var out []CellFailure
	for _, r := range rep.Results {
		if r.Err != nil && !r.Interrupted {
			out = append(out, CellFailure{
				Key:         r.Cell.Key,
				Device:      r.Cell.Device,
				Err:         r.Err.Error(),
				Quarantined: r.Quarantined,
				Attempts:    r.Attempts,
			})
		}
	}
	return out
}

// evalCell is one evaluation campaign cell's work order.
type evalCell struct {
	env    harness.Params
	mutant *litmus.Test
}

// evaluateCampaign expands (environments × mutants) into the scheduler
// spec and per-key work map of an evaluation campaign. Cell order is
// env-major: result i belongs to mutant i mod len(mutants).
func (st *Study) evaluateCampaign(p Platform, envs []harness.Params, seed uint64) (sched.Spec, map[string]evalCell, error) {
	if len(envs) == 0 {
		return sched.Spec{}, nil, fmt.Errorf("core: no environments")
	}
	if _, ok := gpu.ProfileByName(p.Device); !ok {
		return sched.Spec{}, nil, fmt.Errorf("core: unknown device %q", p.Device)
	}
	spec := sched.Spec{Name: "evaluate", Seed: seed}
	work := map[string]evalCell{}
	for ei, env := range envs {
		for _, mt := range st.Suite.Mutants {
			key := fmt.Sprintf("env-%02d/%s", ei, mt.Name)
			spec.Cells = append(spec.Cells, sched.Cell{Key: key, Device: p.Device})
			work[key] = evalCell{env: env, mutant: mt}
		}
	}
	return spec, work, nil
}

// EvaluateSpec returns the scheduler spec EvaluateEnvironments runs for
// the platform with numEnvs environments, without executing anything.
// Its Manifest() identifies the campaign's cell grid — the serve
// subsystem derives idempotent job IDs from it, and it is the manifest
// a checkpoint written by the run will carry.
func (st *Study) EvaluateSpec(p Platform, numEnvs int, seed uint64) (sched.Spec, error) {
	if numEnvs <= 0 {
		return sched.Spec{}, fmt.Errorf("core: no environments")
	}
	spec, _, err := st.evaluateCampaign(p, make([]harness.Params, numEnvs), seed)
	return spec, err
}

// evaluateExec returns the cell executor of an evaluation campaign —
// shared verbatim between local runs and distributed workers, so a
// leased cell computes exactly what a local scheduler would.
func (st *Study) evaluateExec(p Platform, work map[string]evalCell, iterations int) sched.Exec[*harness.Result] {
	return func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (*harness.Result, error) {
		w := work[c.Key]
		r, err := p.runner(w.env)
		if err != nil {
			return nil, err
		}
		return r.RunCtx(ctx, w.mutant, iterations, rng)
	}
}

// EvaluateEnvironments runs every mutant in every environment on the
// platform as one campaign and scores the ensemble: per-mutant results
// are merged across environments (a mutant counts as killed when any
// environment kills it), the multi-environment generalization of the
// paper's single-environment mutation score. It is
// EvaluateEnvironmentsCtx under context.Background().
func (st *Study) EvaluateEnvironments(p Platform, envs []harness.Params, iterations int, seed uint64, opts CampaignOptions) (*EnvScore, error) {
	return st.EvaluateEnvironmentsCtx(context.Background(), p, envs, iterations, seed, opts)
}

// EvaluateEnvironmentsCtx is EvaluateEnvironments under a context.
// Cancellation drains the campaign: in-flight cells finish or are
// abandoned, completed cells are checkpointed, and the partial score is
// returned with Interrupted set alongside an error wrapping
// sched.ErrInterrupted.
func (st *Study) EvaluateEnvironmentsCtx(ctx context.Context, p Platform, envs []harness.Params, iterations int, seed uint64, opts CampaignOptions) (*EnvScore, error) {
	spec, work, err := st.evaluateCampaign(p, envs, seed)
	if err != nil {
		return nil, err
	}
	schedOpts := sched.Options[*harness.Result]{
		Instances: func(r *harness.Result) int { return r.Instances },
	}
	rep, err := runCampaign(ctx, spec, st.evaluateExec(p, work, iterations), opts, schedOpts)
	interrupted := errors.Is(err, sched.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	// Fold each mutant's per-environment results into one, in suite
	// order; cells are env-major so result i belongs to mutant i mod N.
	// Failed cells (possible under Collect or a breaker) contribute
	// nothing to the merge but are reported in Failures; interrupted
	// cells contribute nothing anywhere — they are pending, not failed.
	nm := len(st.Suite.Mutants)
	merged := make([]*harness.Result, nm)
	for mi, mt := range st.Suite.Mutants {
		merged[mi] = &harness.Result{
			TestName: mt.Name, IsMutant: mt.IsMutant, Mutator: mt.Mutator,
		}
	}
	for i, cr := range rep.Results {
		if cr.Err != nil {
			continue
		}
		if err := merged[i%nm].Merge(cr.Value); err != nil {
			return nil, err
		}
	}
	score := &EnvScore{
		PerMutant: merged, Total: nm,
		Failures: cellFailures(rep), Health: rep.Health,
		Interrupted:     interrupted,
		StorageDegraded: rep.StorageDegraded,
		StorageErr:      rep.StorageErr,
	}
	rates := 0.0
	for _, res := range merged {
		if res.TargetCount > 0 {
			score.Killed++
		}
		rates += res.TargetRate()
	}
	score.AvgDeathRate = rates / float64(nm)
	if interrupted {
		return score, fmt.Errorf("core: evaluation interrupted: %w", sched.ErrInterrupted)
	}
	return score, nil
}

// confCell is one conformance campaign cell's work order.
type confCell struct {
	platform Platform
	test     *litmus.Test
}

// fleetConformanceCampaign expands (platforms × conformance tests)
// into the scheduler spec and per-key work map of a fleet conformance
// campaign.
func (st *Study) fleetConformanceCampaign(platforms []Platform, seed uint64) (sched.Spec, map[string]confCell, error) {
	if len(platforms) == 0 {
		return sched.Spec{}, nil, fmt.Errorf("core: no platforms")
	}
	spec := sched.Spec{Name: "conformance", Seed: seed}
	work := map[string]confCell{}
	for pi, p := range platforms {
		if _, ok := gpu.ProfileByName(p.Device); !ok {
			return sched.Spec{}, nil, fmt.Errorf("core: unknown device %q", p.Device)
		}
		for _, test := range st.Suite.Conformance {
			key := fmt.Sprintf("fleet-%02d-%s/%s", pi, p.Device, test.Name)
			spec.Cells = append(spec.Cells, sched.Cell{Key: key, Device: p.Device})
			work[key] = confCell{platform: p, test: test}
		}
	}
	return spec, work, nil
}

// FleetConformanceSpec returns the scheduler spec CheckFleetConformance
// runs for the platforms, without executing anything. Its Manifest()
// identifies the campaign's cell grid — the serve subsystem derives
// idempotent job IDs from it, and it is the manifest a checkpoint
// written by the run will carry.
func (st *Study) FleetConformanceSpec(platforms []Platform, seed uint64) (sched.Spec, error) {
	spec, _, err := st.fleetConformanceCampaign(platforms, seed)
	return spec, err
}

// conformanceExec returns the cell executor of a fleet conformance
// campaign — shared verbatim between local runs and distributed
// workers, so a leased cell computes exactly what a local scheduler
// would.
func (st *Study) conformanceExec(env harness.Params, work map[string]confCell, iterations int) sched.Exec[Finding] {
	return func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (Finding, error) {
		w := work[c.Key]
		r, err := w.platform.runner(env)
		if err != nil {
			return Finding{}, err
		}
		res, err := r.RunCtx(ctx, w.test, iterations, rng)
		if err != nil {
			return Finding{}, err
		}
		f := Finding{
			Test:          w.test.Name,
			Mutator:       w.test.Mutator,
			Instances:     res.Instances,
			Violations:    res.Violations,
			ViolationRate: res.ViolationRate(),
		}
		if res.FirstViolation != nil {
			f.Outcome = res.FirstViolation.Key()
			f.Explanation = explainViolation(w.test, *res.FirstViolation)
		}
		return f, nil
	}
}

// CheckFleetConformance runs the conformance suite on every platform
// as one campaign and returns one report per platform, in input order.
// This is the fleet-wide version of CheckConformance: all
// (platform, test) cells share the scheduler's pool, so a slow device
// does not serialize the rest of the fleet. It is
// CheckFleetConformanceCtx under context.Background().
func (st *Study) CheckFleetConformance(platforms []Platform, env harness.Params, iterations int, seed uint64, opts CampaignOptions) ([]*ConformanceReport, error) {
	return st.CheckFleetConformanceCtx(context.Background(), platforms, env, iterations, seed, opts)
}

// CheckFleetConformanceCtx is CheckFleetConformance under a context.
// Cancellation drains the campaign and returns the partial reports —
// interrupted findings marked pending, report Interrupted set — with an
// error wrapping sched.ErrInterrupted.
func (st *Study) CheckFleetConformanceCtx(ctx context.Context, platforms []Platform, env harness.Params, iterations int, seed uint64, opts CampaignOptions) ([]*ConformanceReport, error) {
	spec, work, err := st.fleetConformanceCampaign(platforms, seed)
	if err != nil {
		return nil, err
	}
	schedOpts := sched.Options[Finding]{
		Instances: func(f Finding) int { return f.Instances },
	}
	rep, err := runCampaign(ctx, spec, st.conformanceExec(env, work, iterations), opts, schedOpts)
	interrupted := errors.Is(err, sched.ErrInterrupted)
	if err != nil && !interrupted {
		return nil, err
	}
	// Assemble per-platform reports from the per-cell results. A failed
	// cell (possible under Collect or a breaker) becomes an
	// error-carrying finding — recorded, never dropped. An interrupted
	// cell becomes a pending finding: marked Interrupted, excluded from
	// Failed(), re-run on resume.
	nc := len(st.Suite.Conformance)
	reports := make([]*ConformanceReport, len(platforms))
	for pi := range platforms {
		r := &ConformanceReport{
			Platform: platforms[pi], Interrupted: interrupted,
			StorageDegraded: rep.StorageDegraded, StorageErr: rep.StorageErr,
		}
		for ti := 0; ti < nc; ti++ {
			cr := rep.Results[pi*nc+ti]
			f := cr.Value
			if cr.Err != nil {
				test := st.Suite.Conformance[ti]
				f = Finding{
					Test: test.Name, Mutator: test.Mutator,
					Error: cr.Err.Error(), Quarantined: cr.Quarantined,
					Interrupted: cr.Interrupted,
				}
			}
			r.Findings = append(r.Findings, f)
		}
		for _, h := range rep.Health {
			if h.Device == platforms[pi].Device {
				r.Health = append(r.Health, h)
			}
		}
		reports[pi] = r
	}
	if interrupted {
		return reports, fmt.Errorf("core: conformance check interrupted: %w", sched.ErrInterrupted)
	}
	return reports, nil
}
