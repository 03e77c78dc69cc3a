package serve

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/sched"
	"repro/internal/tuning"
)

// plan validates a normalized spec against the suite and fleet and
// returns what it learns before anything runs: the scheduler manifest
// the job ID derives from and the planned cell count. Every rejection
// here happens at admission time, before the job touches the queue.
func (s *Server) plan(js *JobSpec) (manifest string, cells int, err error) {
	if err := s.cfg.Budgets.Validate(js.budget()); err != nil {
		return "", 0, err
	}
	if js.Distributed {
		if s.dist == nil {
			return "", 0, fmt.Errorf("distributed execution is not enabled on this server")
		}
		if js.Kind == "tune" {
			return "", 0, fmt.Errorf("tune jobs cannot run distributed")
		}
	}
	if js.Kind == "tune" {
		if js.TuneEnvs <= 0 || js.SiteIters <= 0 || js.PTEIters <= 0 {
			return "", 0, fmt.Errorf("tune sizes must be positive")
		}
		spec, err := tuning.CampaignSpec(tuneConfigOf(js), s.study.Suite.Mutants)
		if err != nil {
			return "", 0, err
		}
		return spec.Manifest(), len(spec.Cells), nil
	}
	// The cell timeout shapes no cell grid, so the plan leaves it out.
	return s.study.PlanWorkSpec(js.workSpec(0))
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

// execute runs one job to completion or drain. onProgress receives
// job-level cumulative snapshots named after the job; the checkpoint
// lives under the server's state directory keyed by job ID, and Resume
// is always on — a fresh checkpoint file falls through to a fresh
// start, so the same call serves first runs and restart recovery
// alike. Campaign kinds run through core.RunWorkSpec; an interrupted
// run's partial artifact is discarded, because the job resumes.
func (s *Server) execute(ctx context.Context, job *Job, eff guard.Budget, onProgress func(sched.Progress)) (*execResult, error) {
	js := job.Spec
	progress := func(p sched.Progress) {
		p.Campaign = job.ID
		onProgress(p)
	}
	ckpt := s.store.checkpointPath(job.ID)
	var buf bytes.Buffer
	if js.Kind == "tune" {
		ropts := tuning.RunOptions{
			Workers:        s.cfg.JobWorkers,
			CellTimeout:    eff.CellTimeout,
			CheckpointPath: ckpt,
			Resume:         true,
			FsyncEvery:     s.cfg.FsyncEvery,
			FS:             s.fs,
			OnProgress:     progress,
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
		if err := ds.Save(&buf); err != nil {
			return nil, err
		}
		return &execResult{
			artifact:   buf.Bytes(),
			degraded:   len(ds.Dropped) > 0 || ds.StorageDegraded,
			storageErr: ds.StorageErr,
		}, nil
	}
	opts := core.CampaignOptions{
		Workers:        s.cfg.JobWorkers,
		CheckpointPath: ckpt,
		Resume:         true,
		FsyncEvery:     s.cfg.FsyncEvery,
		FS:             s.fs,
		OnProgress:     progress,
		ProgressEvery:  s.cfg.ProgressEvery,
	}
	if js.Distributed {
		opts.Dist = &core.DistOptions{Hub: s.dist, Name: job.ID, LeaseTTL: s.cfg.DistLeaseTTL, Logf: s.cfg.Logf}
	}
	if s.cache != nil {
		opts.Cache = s.cache
	}
	res, err := s.study.RunWorkSpec(ctx, js.workSpec(eff.CellTimeout), opts)
	if err != nil {
		return nil, err
	}
	if res.Interrupted {
		return &execResult{interrupted: true}, nil
	}
	if err := res.Artifact.Encode(&buf); err != nil {
		return nil, err
	}
	return &execResult{artifact: buf.Bytes(), degraded: res.Degraded(), storageErr: res.StorageErr}, nil
}
