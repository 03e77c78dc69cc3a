package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/sched"
)

// WorkUnit is one campaign a worker can execute ranges of: the locally
// rebuilt spec (whose Manifest must match the coordinator's) and the
// range runner that executes leased cells.
type WorkUnit struct {
	// Campaign is the unit's suggested coordinator registration name
	// ("conformance", "evaluate.<device>").
	Campaign string
	Spec     sched.Spec
	Run      dist.RunRange
}

// DistWorkOptions tunes the worker side of DistWork beyond what the
// descriptor dictates: pool size and the worker's local result cache.
// None of it affects results — any combination yields segments
// byte-identical to a local run.
type DistWorkOptions struct {
	// Parallel bounds the worker-side scheduler pool; < 1 means serial.
	Parallel int
	// Cache, when non-nil, is this worker's local result cache. The
	// salt is derived from the canonical descriptor (WorkSpec.CacheSalt),
	// so every worker and the submitting side address the same entries;
	// hits are tagged on delivered segments and aggregated fleet-wide by
	// the coordinator.
	Cache sched.ResultCache
}

// DistWork plans the work units a WorkSpec describes, through the
// same expansion RunWorkSpec runs: one fleet unit for conformance, one
// unit per device for evaluate; tune has no range runner and is
// rejected. The mcmutants work verb matches each advertised campaign to
// a unit by spec manifest.
func DistWork(ws WorkSpec, wo DistWorkOptions) ([]WorkUnit, error) {
	st, err := NewStudy()
	if err != nil {
		return nil, err
	}
	camps, err := st.expand(ws)
	if err != nil {
		return nil, err
	}
	if err := distributable(camps); err != nil {
		return nil, err
	}
	ropts := dist.SchedRunnerOptions{Parallel: wo.Parallel, Cache: wo.Cache}
	ropts.Retries, ropts.Backoff, ropts.CellTimeout = ws.policy()
	units := make([]WorkUnit, 0, len(camps))
	for _, c := range camps {
		o := ropts
		if wo.Cache != nil {
			if o.CacheSalt, err = c.ws.CacheSalt(); err != nil {
				return nil, err
			}
		}
		units = append(units, WorkUnit{Campaign: c.name(ws.Kind), Spec: c.spec, Run: c.ranges(o)})
	}
	return units, nil
}

// DistOptions configures a campaign's distributed execution (see
// CampaignOptions.Dist).
type DistOptions struct {
	// Hub is where the coordinator registers; workers reach it through
	// the hub's HTTP routes or an in-process transport. Required.
	Hub *dist.Hub
	// Name is the base coordinator registration name; empty means the
	// spec kind. RunWorkSpec appends ".<device>" for each evaluate
	// campaign. Names must be unique on the hub while campaigns run.
	Name string
	// LeaseTTL, RangeCells, MaxReissues and StallTimeout tune the
	// coordinator; zero values use dist's defaults (10s leases, ranges
	// of 8, 5 re-issues, no stall bound).
	LeaseTTL     time.Duration
	RangeCells   int
	MaxReissues  int
	StallTimeout time.Duration
	// WorkerBreaker sets per-worker quarantine thresholds; the zero
	// value uses sched's defaults.
	WorkerBreaker sched.BreakerOptions
	// Logf, when non-nil, receives coordination events.
	Logf func(format string, args ...any)
}

// runCampaign executes one campaign spec: locally through the
// scheduler, each worker running its own exec from newExec, or — when
// o.Dist is set — through a registered coordinator whose cells worker
// processes execute. Both paths return the same sched.Report shape, so
// assembly downstream is shared, and an interruption wraps
// sched.ErrInterrupted either way. desc is the campaign's WorkSpec
// descriptor, which a cache salts with and a coordinator advertises;
// only RunWorkSpec has one to pass.
func runCampaign[R any](ctx context.Context, spec sched.Spec, newExec func() sched.Exec[R], o CampaignOptions, schedOpts sched.Options[R], desc json.RawMessage) (*sched.Report[R], error) {
	if (o.Dist != nil || o.Cache != nil) && desc == nil {
		return nil, fmt.Errorf("core: cached and distributed campaigns run through RunWorkSpec")
	}
	if o.Dist != nil {
		return runDistCampaign[R](ctx, spec, o, desc, schedOpts.Instances)
	}
	ck, err := openCheckpoint(o, spec)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		defer ck.Close()
	}
	applyCampaignOptions(o, &schedOpts)
	schedOpts.Checkpoint = ck
	schedOpts.CacheSalt = string(desc)
	schedOpts.NewWorkerExec = newExec
	return sched.RunContext(ctx, spec, nil, schedOpts)
}

// runDistCampaign coordinates one campaign across worker processes:
// it opens the checkpoint (seeding already-completed cells as replayed
// segments on resume), registers a coordinator on the hub, persists
// incoming segments, waits for every cell to resolve, and assembles
// the final report — applying the same breaker post-pass a local run
// would, so the result is byte-identical at any shard count.
func runDistCampaign[R any](ctx context.Context, spec sched.Spec, o CampaignOptions, desc json.RawMessage, instances func(R) int) (*sched.Report[R], error) {
	d := o.Dist
	if d.Hub == nil {
		return nil, fmt.Errorf("core: distributed campaign needs a hub")
	}
	start := time.Now()
	ck, err := openCheckpoint(o, spec)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		defer ck.Close()
	}
	seed := map[string]sched.Segment{}
	deviceOf := make(map[string]string, len(spec.Cells))
	for _, c := range spec.Cells {
		deviceOf[c.Key] = c.Device
		if ck == nil {
			continue
		}
		if raw, ok := ck.Done(c.Key); ok {
			seed[c.Key] = sched.Segment{Key: c.Key, Value: raw, Replayed: true}
		}
	}
	// Throttled live snapshots from coordinator status; the settled
	// Final one is emitted exactly once after assembly, mirroring the
	// local scheduler's progress contract (cumulative, Done monotonic).
	every := o.ProgressEvery
	if every <= 0 {
		every = sched.DefaultProgressEvery
	}
	// progMu serializes OnProgress: status callbacks arrive on RPC
	// handler goroutines (one per delivering worker), but progress
	// consumers — like the serve aggregator — are written against the
	// local scheduler's single-goroutine delivery. The callback runs
	// under the lock, and progDone fences out any late zombie delivery
	// after the Final snapshot.
	var progMu sync.Mutex
	var progDone bool
	var lastEmit time.Time
	onStatus := func(st dist.Status) {
		if o.OnProgress == nil {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		now := time.Now()
		if progDone || (!lastEmit.IsZero() && now.Sub(lastEmit) < every) {
			return
		}
		lastEmit = now
		o.OnProgress(sched.LiveProgress(spec.Name, st.Total, st.Done, st.Replayed, st.CacheHits, time.Since(start).Seconds()))
	}
	coord, err := dist.NewCoordinator(d.Name, spec, desc, seed, dist.CoordinatorOptions{
		LeaseTTL:     d.LeaseTTL,
		RangeCells:   d.RangeCells,
		MaxReissues:  d.MaxReissues,
		StallTimeout: d.StallTimeout,
		Breaker:      d.WorkerBreaker,
		Logf:         d.Logf,
		OnStatus:     onStatus,
		OnSegment: func(seg sched.Segment) {
			if o.Progress != nil {
				o.Progress(fmt.Sprintf("%s on %s (delivered)", seg.Key, deviceOf[seg.Key]))
			}
			if ck != nil && seg.Err == "" {
				// Failed cells are never checkpointed locally either; a
				// storage failure degrades, it does not fail the campaign.
				ck.RecordRaw(seg.Key, seg.Value)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := d.Hub.Register(d.Name, coord); err != nil {
		return nil, err
	}
	defer d.Hub.Unregister(d.Name)
	waitErr := coord.Wait(ctx)
	rep, err := sched.AssembleReport[R](spec, coord.Segments(), o.Breaker)
	if err != nil {
		return nil, err
	}
	rep.WallSeconds = time.Since(start).Seconds()
	var syncErr error
	if ck != nil {
		syncErr = ck.Sync()
		if derr := ck.Degraded(); derr != nil {
			rep.StorageDegraded = true
			rep.StorageErr = derr.Error()
		}
	}
	if o.OnProgress != nil {
		inst := 0
		if instances != nil {
			for _, r := range rep.Results {
				if r.Err == nil && !r.Replayed && !r.CacheHit {
					inst += instances(r.Value)
				}
			}
		}
		p := sched.FinalProgress(rep, inst, rep.WallSeconds)
		progMu.Lock()
		progDone = true
		o.OnProgress(p)
		progMu.Unlock()
	}
	if rep.Interrupted > 0 {
		return rep, fmt.Errorf("core: distributed campaign %q interrupted: %d of %d cells pending: %w (%v)",
			spec.Name, rep.Interrupted, len(spec.Cells), sched.ErrInterrupted, waitErr)
	}
	if syncErr != nil {
		return rep, syncErr
	}
	return rep, nil
}
