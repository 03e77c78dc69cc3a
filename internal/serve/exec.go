package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/tuning"
	"repro/internal/wgsl"
)

// jobPlan is what validation learns about a spec before anything
// runs: the combined scheduler manifest the job ID derives from, the
// total planned cell count, and how many sequential campaigns the job
// expands to (evaluate runs one per device, like the CLI).
type jobPlan struct {
	manifest  string
	cells     int
	campaigns int
}

// plan validates a normalized spec against the suite and fleet and
// computes its identity — every rejection here happens at admission
// time, before the job touches the queue.
func (s *Server) plan(js *JobSpec) (*jobPlan, error) {
	if len(js.Devices) == 0 {
		return nil, fmt.Errorf("no devices")
	}
	if err := s.cfg.Budgets.Validate(js.budget()); err != nil {
		return nil, err
	}
	for _, d := range js.Devices {
		if _, ok := gpu.ProfileByName(d); !ok {
			return nil, fmt.Errorf("unknown device %q", d)
		}
	}
	if js.Distributed {
		if s.dist == nil {
			return nil, fmt.Errorf("distributed execution is not enabled on this server")
		}
		if js.Kind == "tune" {
			return nil, fmt.Errorf("tune jobs cannot run distributed")
		}
	}
	switch js.Kind {
	case "conformance":
		if err := checkEnvs(js.Envs); err != nil {
			return nil, err
		}
		spec, err := s.study.FleetConformanceSpec(platformsOf(js), js.Seed)
		if err != nil {
			return nil, err
		}
		return &jobPlan{manifest: spec.Manifest(), cells: len(spec.Cells), campaigns: 1}, nil
	case "evaluate":
		if err := checkEnvs(js.Envs); err != nil {
			return nil, err
		}
		var manifests bytes.Buffer
		cells := 0
		for _, p := range platformsOf(js) {
			spec, err := s.study.EvaluateSpec(p, len(js.Envs), js.Seed)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&manifests, "%s/%s\n", p.Device, spec.Manifest())
			cells += len(spec.Cells)
		}
		return &jobPlan{manifest: manifests.String(), cells: cells, campaigns: len(js.Devices)}, nil
	case "tune":
		if js.TuneEnvs <= 0 || js.SiteIters <= 0 || js.PTEIters <= 0 {
			return nil, fmt.Errorf("tune sizes must be positive")
		}
		spec, err := tuning.CampaignSpec(tuneConfigOf(js), s.study.Suite.Mutants)
		if err != nil {
			return nil, err
		}
		return &jobPlan{manifest: spec.Manifest(), cells: len(spec.Cells), campaigns: 1}, nil
	case "":
		return nil, fmt.Errorf("missing kind (conformance, evaluate, tune)")
	default:
		return nil, fmt.Errorf("unknown kind %q (conformance, evaluate, tune)", js.Kind)
	}
}

// checkEnvs resolves every environment preset, rejecting unknowns.
func checkEnvs(names []string) error {
	if len(names) == 0 {
		return fmt.Errorf("no environments")
	}
	for _, n := range names {
		if _, err := core.EnvByName(n, 16, 32); err != nil {
			return err
		}
	}
	return nil
}

// platformsOf expands the spec's devices into campaign platforms,
// mirroring the CLI's -devices/-fence-bug handling.
func platformsOf(js *JobSpec) []core.Platform {
	platforms := make([]core.Platform, 0, len(js.Devices))
	for _, d := range js.Devices {
		p := core.Platform{Device: d}
		if js.FenceBug {
			p.Driver = wgsl.DriverFenceDropping
		}
		platforms = append(platforms, p)
	}
	return platforms
}

// workSpecOf is the shared WorkSpec shape behind distributed
// descriptors and cache salts. The effective cell timeout rides along
// because it is an execution parameter that can change reported
// attempt counts — exactly why the CLI folds -cell-timeout into its
// WorkSpec — so workers must enforce the submitting side's value and
// cache entries must not mix timeout regimes. A job with no cell
// timeout (none requested, no server default) produces the WorkSpec
// this code always produced.
func workSpecOf(js *JobSpec, devices []string, cellTimeout time.Duration) core.WorkSpec {
	return core.WorkSpec{
		Kind:          js.Kind,
		Devices:       devices,
		Envs:          append([]string(nil), js.Envs...),
		Iters:         js.Iters,
		Seed:          js.Seed,
		FenceBug:      js.FenceBug,
		CellTimeoutMS: cellTimeout.Milliseconds(),
	}
}

// distOptions builds a distributed job's per-campaign coordinator
// options: the hub registration name and the wire descriptor workers
// rebuild the campaign from.
func (s *Server) distOptions(js *JobSpec, name string, devices []string, cellTimeout time.Duration) (*core.DistOptions, error) {
	desc, err := workSpecOf(js, devices, cellTimeout).Descriptor()
	if err != nil {
		return nil, err
	}
	return &core.DistOptions{
		Hub:        s.dist,
		Name:       name,
		Descriptor: desc,
		LeaseTTL:   s.cfg.DistLeaseTTL,
		Logf:       s.cfg.Logf,
	}, nil
}

// cacheSaltFor derives a campaign job's result-cache salt from the
// same WorkSpec shape the CLI and distributed descriptors use, so a
// serve job, the equivalent `mcmutants campaign` invocation and any
// distributed worker address identical cache entries.
func cacheSaltFor(js *JobSpec, devices []string, cellTimeout time.Duration) (string, error) {
	return workSpecOf(js, devices, cellTimeout).CacheSalt()
}

// tuneConfigOf builds the tuning config the CLI's tune verb would:
// SmallConfig with the spec's sizes, seed and fleet subset.
func tuneConfigOf(js *JobSpec) tuning.Config {
	cfg := tuning.SmallConfig()
	cfg.Environments = js.TuneEnvs
	cfg.SITEIterations = js.SiteIters
	cfg.PTEIterations = js.PTEIters
	cfg.Seed = js.Seed
	cfg.Devices = append([]string(nil), js.Devices...)
	return cfg
}

// execResult is a finished (or drained) execution attempt.
type execResult struct {
	// artifact is the canonical report rendering — byte-identical to
	// what the CLI's -out flag writes for the same spec. Nil when the
	// run was interrupted.
	artifact []byte
	// degraded mirrors the CLI's exit-2 verdict: cells produced no
	// data or the checkpoint storage degraded.
	degraded   bool
	storageErr string
	// interrupted marks a graceful drain (shutdown or cancellation);
	// completed cells are checkpointed and the job can resume.
	interrupted bool
}

// progressAggregator folds the per-campaign snapshot streams of a
// multi-campaign job (evaluate runs one campaign per device) into one
// job-level cumulative stream. Campaigns run sequentially on a single
// runner goroutine, so no locking is needed; the output hook carries
// job totals with Final set only on the last campaign's settlement.
type progressAggregator struct {
	out       func(sched.Progress)
	campaigns int

	finished int
	// base is the job-level fold of every settled campaign; its
	// Campaign and Total name the job.
	base sched.Progress
}

// hook returns the OnProgress callback to hand the next campaign.
func (a *progressAggregator) hook() func(sched.Progress) {
	return func(p sched.Progress) {
		q := a.base
		q.Add(p)
		if p.Final {
			a.finished++
			a.base = q
		}
		q.Final = p.Final && a.finished == a.campaigns
		a.out(q)
	}
}

// execute runs one job to completion or drain. onProgress receives
// job-level cumulative snapshots (see progressAggregator); the
// checkpoint lives under the server's state directory keyed by job
// ID, and Resume is always on — a fresh checkpoint file falls through
// to a fresh start, so the same call serves first runs and restart
// recovery alike.
func (s *Server) execute(ctx context.Context, job *Job, eff guard.Budget, onProgress func(sched.Progress)) (*execResult, error) {
	js := job.Spec
	agg := &progressAggregator{
		out:       onProgress,
		campaigns: 1,
		base:      sched.Progress{Campaign: job.ID, Total: job.Cells},
	}
	opts := core.CampaignOptions{
		Workers:        s.cfg.JobWorkers,
		CellTimeout:    eff.CellTimeout,
		CheckpointPath: s.store.checkpointPath(job.ID),
		Resume:         true,
		FsyncEvery:     s.cfg.FsyncEvery,
		FS:             s.fs,
		ProgressEvery:  s.cfg.ProgressEvery,
	}
	switch js.Kind {
	case "conformance":
		opts.OnProgress = agg.hook()
		if js.Distributed {
			d, err := s.distOptions(&js, job.ID, js.Devices, eff.CellTimeout)
			if err != nil {
				return nil, err
			}
			opts.Dist = d
		}
		if s.cache != nil {
			salt, err := cacheSaltFor(&js, js.Devices, eff.CellTimeout)
			if err != nil {
				return nil, err
			}
			opts.Cache = s.cache
			opts.CacheSalt = salt
		}
		env, err := core.EnvByName(js.Envs[0], 16, 32)
		if err != nil {
			return nil, err
		}
		reports, err := s.study.CheckFleetConformanceCtx(ctx, platformsOf(&js), env, js.Iters, js.Seed, opts)
		interrupted := errors.Is(err, sched.ErrInterrupted)
		if err != nil && !interrupted {
			return nil, err
		}
		if interrupted {
			return &execResult{interrupted: true}, nil
		}
		res := &execResult{}
		failed := 0
		for _, rep := range reports {
			if rep.StorageDegraded {
				res.degraded, res.storageErr = true, rep.StorageErr
			}
			failed += len(rep.Failed())
		}
		if failed > 0 {
			res.degraded = true
		}
		storageDegraded := res.storageErr != ""
		art := &core.CampaignArtifact{Kind: "conformance", Conformance: reports, StorageDegraded: storageDegraded}
		var buf bytes.Buffer
		if err := art.Encode(&buf); err != nil {
			return nil, err
		}
		res.artifact = buf.Bytes()
		return res, nil
	case "evaluate":
		agg.campaigns = len(js.Devices)
		envList := make([]harness.Params, 0, len(js.Envs))
		for _, n := range js.Envs {
			env, err := core.EnvByName(n, 16, 32)
			if err != nil {
				return nil, err
			}
			envList = append(envList, env)
		}
		res := &execResult{}
		failed := 0
		var entries []core.EvaluateEntry
		for _, p := range platformsOf(&js) {
			devOpts := opts
			devOpts.OnProgress = agg.hook()
			// One campaign per device; keep their checkpoints apart
			// (the same suffix scheme the CLI uses).
			devOpts.CheckpointPath = fmt.Sprintf("%s.%s", opts.CheckpointPath, p.Device)
			if js.Distributed {
				// One coordinator per device with a single-device
				// descriptor, so a worker's locally-planned unit
				// manifest matches the advertised campaign.
				d, err := s.distOptions(&js, job.ID+"."+p.Device, []string{p.Device}, eff.CellTimeout)
				if err != nil {
					return nil, err
				}
				devOpts.Dist = d
			}
			if s.cache != nil {
				// Per-device salt, matching the single-device descriptor a
				// distributed worker would salt with.
				salt, err := cacheSaltFor(&js, []string{p.Device}, eff.CellTimeout)
				if err != nil {
					return nil, err
				}
				devOpts.Cache = s.cache
				devOpts.CacheSalt = salt
			}
			score, err := s.study.EvaluateEnvironmentsCtx(ctx, p, envList, js.Iters, js.Seed, devOpts)
			interrupted := errors.Is(err, sched.ErrInterrupted)
			if err != nil && !interrupted {
				return nil, err
			}
			if interrupted {
				return &execResult{interrupted: true}, nil
			}
			if score.StorageDegraded {
				res.degraded, res.storageErr = true, score.StorageErr
			}
			failed += len(score.Failures)
			entries = append(entries, core.EvaluateEntry{Device: p.Device, Score: score})
		}
		if failed > 0 {
			res.degraded = true
		}
		storageDegraded := res.storageErr != ""
		art := &core.CampaignArtifact{Kind: "evaluate", Evaluate: entries, StorageDegraded: storageDegraded}
		var buf bytes.Buffer
		if err := art.Encode(&buf); err != nil {
			return nil, err
		}
		res.artifact = buf.Bytes()
		return res, nil
	case "tune":
		ropts := tuning.RunOptions{
			Workers:        s.cfg.JobWorkers,
			CellTimeout:    eff.CellTimeout,
			CheckpointPath: opts.CheckpointPath,
			Resume:         true,
			FsyncEvery:     s.cfg.FsyncEvery,
			FS:             s.fs,
			OnProgress:     agg.hook(),
			ProgressEvery:  s.cfg.ProgressEvery,
		}
		if s.cache != nil {
			ropts.Cache = s.cache
		}
		ds, err := tuning.RunCampaignCtx(ctx, tuneConfigOf(&js), s.study.Suite.Mutants, ropts)
		if err != nil {
			return nil, err
		}
		if ds.Interrupted {
			return &execResult{interrupted: true}, nil
		}
		res := &execResult{
			degraded:   len(ds.Dropped) > 0 || ds.StorageDegraded,
			storageErr: ds.StorageErr,
		}
		var buf bytes.Buffer
		if err := ds.Save(&buf); err != nil {
			return nil, err
		}
		res.artifact = buf.Bytes()
		return res, nil
	default:
		return nil, fmt.Errorf("unknown kind %q", js.Kind)
	}
}
