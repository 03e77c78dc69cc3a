package serve

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/sched"
)

// plan validates a normalized spec against the suite and fleet and
// returns what it learns before anything runs: the scheduler manifest
// the job ID derives from and the planned cell count. Every rejection
// here happens at admission time, before the job touches the queue.
func (s *Server) plan(js *JobSpec) (manifest string, cells int, err error) {
	if err := s.cfg.Budgets.Validate(js.budget()); err != nil {
		return "", 0, err
	}
	if js.Distributed && s.dist == nil {
		return "", 0, fmt.Errorf("distributed execution is not enabled on this server")
	}
	// The cell timeout shapes no cell grid, so the plan leaves it out.
	return s.study.PlanWorkSpec(js.workSpec(0))
}

// execute runs one job to completion or drain through
// core.RunWorkSpec. onProgress receives job-level cumulative snapshots
// named after the job; the checkpoint lives under the server's state
// directory keyed by job ID, and Resume is always on — a fresh
// checkpoint file falls through to a fresh start, so the same call
// serves first runs and restart recovery alike. A completed run also
// returns its artifact's canonical rendering — byte-identical to what
// the CLI's -out writes for the same spec; an interrupted run's partial
// artifact is discarded, because the job resumes.
func (s *Server) execute(ctx context.Context, job *Job, eff guard.Budget, onProgress func(sched.Progress)) (*core.WorkResult, []byte, error) {
	opts := core.CampaignOptions{
		Workers:        s.cfg.JobWorkers,
		CheckpointPath: s.store.checkpointPath(job.ID),
		Resume:         true,
		FsyncEvery:     s.cfg.FsyncEvery,
		FS:             s.fs,
		OnProgress: func(p sched.Progress) {
			p.Campaign = job.ID
			onProgress(p)
		},
		ProgressEvery: s.cfg.ProgressEvery,
	}
	if job.Spec.Distributed {
		opts.Dist = &core.DistOptions{Hub: s.dist, Name: job.ID, LeaseTTL: s.cfg.DistLeaseTTL, Logf: s.cfg.Logf}
	}
	if s.cache != nil {
		opts.Cache = s.cache
	}
	res, err := s.study.RunWorkSpec(ctx, job.Spec.workSpec(eff.CellTimeout), opts)
	if err != nil || res.Interrupted {
		return res, nil, err
	}
	var buf bytes.Buffer
	if err := res.Encode(&buf); err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}
