package core

import (
	"repro/internal/dist"
	"repro/internal/sched"
)

// WorkUnit is the campaign a worker executes ranges of: the locally
// rebuilt spec (whose Manifest must match the coordinator's) and the
// range runner that executes leased cells.
type WorkUnit struct {
	Spec sched.Spec
	Run  dist.RunRange
}

// DistWorkOptions tunes the worker side of DistWork beyond what the
// descriptor dictates: pool size and the worker's local result cache.
// None of it affects results — any combination yields segments
// byte-identical to a local run.
type DistWorkOptions struct {
	// Parallel bounds the worker-side scheduler pool; < 1 means serial.
	Parallel int
	// Cache, when non-nil, is this worker's local result cache. It is
	// salted as the kind's local run salts it, so every worker and the
	// submitting side address the same entries; hits are tagged on
	// delivered segments and aggregated fleet-wide by the coordinator.
	Cache sched.ResultCache
}

// DistWork plans the work unit a WorkSpec describes, through the same
// expansion RunWorkSpec runs. The mcmutants work verb checks its
// manifest against the advertised campaign's.
func DistWork(ws WorkSpec, wo DistWorkOptions) (WorkUnit, error) {
	st, err := NewStudy()
	if err != nil {
		return WorkUnit{}, err
	}
	c, err := st.expand(ws)
	if err != nil {
		return WorkUnit{}, err
	}
	o := dist.SchedRunnerOptions{Parallel: wo.Parallel, Cache: wo.Cache}
	o.Retries, o.CellTimeout = ws.policy()
	if o.Cache != nil {
		if o.CacheSalt, err = c.salt(); err != nil {
			return WorkUnit{}, err
		}
	}
	return WorkUnit{Spec: c.spec, Run: c.ranges(o)}, nil
}
