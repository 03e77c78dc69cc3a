package core

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// CampaignOptions configures the campaign runner behind the core
// workflows; it is dist.CampaignOptions, the options of the one runner
// every kind runs on (dist.RunCampaign).
type CampaignOptions = dist.CampaignOptions

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

// cellFailures extracts the failed cells of a run of results, in spec
// order. Interrupted cells are pending, not failed, and are excluded.
func cellFailures[R any](results []sched.CellResult[R]) []CellFailure {
	var out []CellFailure
	for _, r := range results {
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

// deviceHealth selects one device's entries of a report's fleet health.
func deviceHealth(health []sched.DeviceHealth, device string) []sched.DeviceHealth {
	var out []sched.DeviceHealth
	for _, h := range health {
		if h.Device == device {
			out = append(out, h)
		}
	}
	return out
}

// evalRunner is the runner an evaluation cell needs: one platform in
// one environment.
type evalRunner struct {
	platform Platform
	env      harness.Params
}

// evalCell is one evaluation or correlation campaign cell's work
// order: a test to run on a runner.
type evalCell struct {
	runner evalRunner
	test   *litmus.Test
}

// evaluateWork plans an evaluation campaign: (platforms × environments
// × mutants) at ws's seed and iterations, scored per platform in input
// order. Cells are keyed <device>/env-NN/<mutant>, device-major then
// env-major, so a device's cells and their RNG streams are the same
// whatever else the fleet holds, and result i belongs to mutant i mod
// len(mutants).
func (st *Study) evaluateWork(ws WorkSpec, platforms []Platform, envs []harness.Params) (*workCampaign, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("core: no environments")
	}
	spec := sched.Spec{Name: "evaluate", Seed: ws.Seed}
	work := map[string]evalCell{}
	for _, p := range platforms {
		if _, ok := gpu.ProfileByName(p.Device); !ok {
			return nil, fmt.Errorf("core: unknown device %q", p.Device)
		}
		for ei, env := range envs {
			for _, mt := range st.Suite.Mutants {
				key := fmt.Sprintf("%s/env-%02d/%s", p.Device, ei, mt.Name)
				spec.Cells = append(spec.Cells, sched.Cell{Key: key, Device: p.Device})
				work[key] = evalCell{runner: evalRunner{platform: p, env: env}, test: mt}
			}
		}
	}
	return newWorkCampaign(ws, spec, st.evaluateExec(work, ws.Iters), resultInstances, ws.CacheSalt,
		func(rep *sched.Report[*harness.Result], interrupted bool) (*WorkResult, error) {
			entries, err := st.evaluateEntries(rep, platforms, interrupted)
			return &WorkResult{Artifact: &CampaignArtifact{Kind: ws.Kind, Evaluate: entries}}, err
		}), nil
}

// resultInstances counts a harness result's executed test instances.
func resultInstances(r *harness.Result) int { return r.Instances }

// evaluateExec returns the per-worker exec factory of an evaluation or
// correlation campaign, shared verbatim by local runs and distributed
// workers. Each worker keeps one warm runner, rebuilt when the
// (platform, environment) changes (cells are platform-major, then
// env-major); each cell's fresh Result is its value.
func (st *Study) evaluateExec(work map[string]evalCell, iterations int) func() sched.Exec[*harness.Result] {
	return func() sched.Exec[*harness.Result] {
		warm := harness.WarmRunner[evalRunner]{
			New: func(k evalRunner) (*harness.Runner, error) { return k.platform.Runner(k.env) },
		}
		return func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (*harness.Result, error) {
			w := work[c.Key]
			r, err := warm.Get(w.runner, w.runner.platform.Faults)
			if err != nil {
				return nil, err
			}
			return r.RunCtx(ctx, w.test, iterations, rng)
		}
	}
}

// evaluateEntries scores each platform of a settled evaluation
// campaign, in input order: per-mutant results are merged across
// environments (a mutant counts as killed when any environment kills
// it), the multi-environment generalization of the paper's
// single-environment mutation score.
func (st *Study) evaluateEntries(rep *sched.Report[*harness.Result], platforms []Platform, interrupted bool) ([]EvaluateEntry, error) {
	// Fold each mutant's per-environment results into one, in suite
	// order. Failed cells (possible under Collect or a breaker)
	// contribute nothing to the merge but are reported in Failures;
	// interrupted cells contribute nothing anywhere — they are pending,
	// not failed.
	nm := len(st.Suite.Mutants)
	per := len(rep.Results) / len(platforms)
	entries := make([]EvaluateEntry, len(platforms))
	for pi, p := range platforms {
		results := rep.Results[pi*per : (pi+1)*per]
		merged := make([]*harness.Result, nm)
		for mi, mt := range st.Suite.Mutants {
			merged[mi] = &harness.Result{
				TestName: mt.Name, IsMutant: mt.IsMutant, Mutator: mt.Mutator,
			}
		}
		for i, cr := range results {
			if cr.Err != nil {
				continue
			}
			if err := merged[i%nm].Merge(cr.Value); err != nil {
				return nil, err
			}
		}
		score := &EnvScore{
			PerMutant: merged, Total: nm,
			Failures: cellFailures(results), Health: deviceHealth(rep.Health, p.Device),
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
		entries[pi] = EvaluateEntry{Device: p.Device, Score: score}
	}
	return entries, nil
}

// confCell is one conformance campaign cell's work order.
type confCell struct {
	platform Platform
	test     *litmus.Test
}

// conformanceWork plans a fleet conformance campaign: (platforms ×
// conformance tests) in one environment at ws's seed and iterations,
// reported per platform in input order.
func (st *Study) conformanceWork(ws WorkSpec, platforms []Platform, env harness.Params) (*workCampaign, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("core: no platforms")
	}
	spec := sched.Spec{Name: "conformance", Seed: ws.Seed}
	work := map[string]confCell{}
	for pi, p := range platforms {
		if _, ok := gpu.ProfileByName(p.Device); !ok {
			return nil, fmt.Errorf("core: unknown device %q", p.Device)
		}
		for _, test := range st.Suite.Conformance {
			key := fmt.Sprintf("fleet-%02d-%s/%s", pi, p.Device, test.Name)
			spec.Cells = append(spec.Cells, sched.Cell{Key: key, Device: p.Device})
			work[key] = confCell{platform: p, test: test}
		}
	}
	return newWorkCampaign(ws, spec, st.conformanceExec(env, work, ws.Iters), func(f Finding) int { return f.Instances }, ws.CacheSalt,
		func(rep *sched.Report[Finding], interrupted bool) (*WorkResult, error) {
			reports := st.conformanceReports(rep, platforms, interrupted)
			return &WorkResult{Artifact: &CampaignArtifact{Kind: ws.Kind, Conformance: reports}}, nil
		}), nil
}

// conformanceExec returns the per-worker exec factory of a fleet
// conformance campaign, shared verbatim by local runs and distributed
// workers. Each worker keeps one warm runner, rebuilt when the platform
// changes (cells are platform-major), and one reused Result: a Finding
// copies scalars and the violation RunInto cloned.
func (st *Study) conformanceExec(env harness.Params, work map[string]confCell, iterations int) func() sched.Exec[Finding] {
	return func() sched.Exec[Finding] {
		warm := harness.WarmRunner[Platform]{
			New: func(p Platform) (*harness.Runner, error) { return p.Runner(env) },
		}
		var res harness.Result
		return func(ctx context.Context, c sched.Cell, rng *xrand.Rand) (Finding, error) {
			w := work[c.Key]
			r, err := warm.Get(w.platform, w.platform.Faults)
			if err != nil {
				return Finding{}, err
			}
			if err := r.RunInto(ctx, &res, w.test, iterations, rng); err != nil {
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
}

// CheckFleetConformanceCtx runs the conformance suite on every
// platform as one campaign and returns one report per platform, in
// input order, explaining each discovered violation. All (platform,
// test) cells share the scheduler's pool, so a slow device does not
// serialize the rest of the fleet. Cancellation drains the campaign
// and returns the partial reports — interrupted findings marked
// pending, report Interrupted set — with an error wrapping
// sched.ErrInterrupted.
func (st *Study) CheckFleetConformanceCtx(ctx context.Context, platforms []Platform, env harness.Params, iterations int, seed uint64, opts CampaignOptions) ([]*ConformanceReport, error) {
	c, err := st.conformanceWork(WorkSpec{Kind: "conformance", Iters: iterations, Seed: seed}, platforms, env)
	if err != nil {
		return nil, err
	}
	res, err := c.run(ctx, opts, nil, "")
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return res.Artifact.Conformance, fmt.Errorf("core: conformance check interrupted: %w", sched.ErrInterrupted)
	}
	return res.Artifact.Conformance, nil
}

// conformanceReports assembles a settled fleet conformance campaign
// into its per-platform reports.
func (st *Study) conformanceReports(rep *sched.Report[Finding], platforms []Platform, interrupted bool) []*ConformanceReport {
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
		r.Health = deviceHealth(rep.Health, platforms[pi].Device)
		reports[pi] = r
	}
	return reports
}
