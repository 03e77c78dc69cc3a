package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/wgsl"
)

// WorkSpec is the self-contained work descriptor a distributed
// campaign advertises to workers (dist.WorkInfo.Descriptor). A worker
// holding only this JSON rebuilds the exact cell grid and executor the
// submitting side planned — same suite, platforms, environments, seed
// and retry policy — which dist verifies by manifest before any lease
// is granted. Everything in it feeds the split-seed determinism
// contract, so a leased cell's result is byte-identical to a local
// run's.
type WorkSpec struct {
	// Kind is the campaign kind: "conformance" or "evaluate".
	Kind string `json:"kind"`
	// Devices are the platform device short names. Conformance runs one
	// fleet campaign over all of them; evaluate plans one campaign per
	// device.
	Devices []string `json:"devices"`
	// Envs are environment preset names (see EnvByName); conformance
	// uses the first, evaluate crosses all of them with the mutants.
	Envs []string `json:"envs"`
	// Iters is kernel launches per cell; Seed the campaign seed.
	Iters int    `json:"iters"`
	Seed  uint64 `json:"seed"`
	// FenceBug injects the fence-dropping driver on every platform.
	FenceBug bool `json:"fence_bug,omitempty"`
	// Faults, when non-nil, is the device-stack fault model every
	// platform runs under (fault streams are seeded, so workers inject
	// identical faults).
	Faults *gpu.FaultModel `json:"faults,omitempty"`
	// Retries, BackoffMS and CellTimeoutMS are the per-cell retry
	// policy. They are part of the byte-identity contract — attempt
	// counts and timeout failures appear in reports — so workers must
	// run the submitting side's values, not their own defaults.
	Retries       int   `json:"retries,omitempty"`
	BackoffMS     int64 `json:"backoff_ms,omitempty"`
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
}

// Descriptor returns the spec serialized for dist.WorkInfo.
func (ws WorkSpec) Descriptor() (json.RawMessage, error) {
	raw, err := json.Marshal(ws)
	if err != nil {
		return nil, fmt.Errorf("core: encode work spec: %w", err)
	}
	return raw, nil
}

// CacheSalt returns the result-cache salt for the campaign this work
// spec describes: the canonical descriptor JSON. Every workload
// parameter outside the scheduler spec — iterations, environments,
// fault model, driver bug, retry policy — is in it, so two campaigns
// share cache entries exactly when they would compute identical
// results. The submitting CLI, serve jobs and every distributed
// worker derive their salt from the same descriptor, which is what
// makes cache keys agree fleet-wide.
func (ws WorkSpec) CacheSalt() (string, error) {
	raw, err := ws.Descriptor()
	if err != nil {
		return "", err
	}
	return string(raw), nil
}

// platforms expands the device list into Platforms with the spec's
// driver and fault model applied — the same expansion cmdCampaign does
// for local runs.
func (ws WorkSpec) platforms() []Platform {
	out := make([]Platform, 0, len(ws.Devices))
	for _, d := range ws.Devices {
		p := Platform{Device: d}
		if ws.Faults != nil {
			p.Faults = *ws.Faults
		}
		if ws.FenceBug {
			p.Driver = wgsl.DriverFenceDropping
		}
		out = append(out, p)
	}
	return out
}

// envParams resolves the environment presets.
func (ws WorkSpec) envParams() ([]harness.Params, error) {
	if len(ws.Envs) == 0 {
		return nil, fmt.Errorf("core: work spec has no environments")
	}
	out := make([]harness.Params, 0, len(ws.Envs))
	for _, name := range ws.Envs {
		env, err := EnvByName(name, 16, 32)
		if err != nil {
			return nil, err
		}
		out = append(out, env)
	}
	return out, nil
}

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

// DistWorkOptions tunes the worker side of DistWorkOpts beyond what
// the descriptor dictates: pool size, fake clocks, and the worker's
// local result cache. None of it affects results — any combination
// yields segments byte-identical to a local run.
type DistWorkOptions struct {
	// Parallel bounds the worker-side scheduler pool; < 1 means serial.
	Parallel int
	// Sleep overrides retry waiting (tests inject fake clocks).
	Sleep func(time.Duration)
	// Cache, when non-nil, is this worker's local result cache. The
	// salt is derived from the canonical descriptor (WorkSpec.CacheSalt),
	// so every worker and the submitting side address the same entries;
	// hits are tagged on delivered segments and aggregated fleet-wide by
	// the coordinator.
	Cache sched.ResultCache
}

// DistWork plans the work units a WorkSpec describes: one fleet unit
// for conformance, one unit per device for evaluate. parallel bounds
// the worker-side scheduler pool (any value yields identical results);
// sleep overrides retry waiting (tests inject fake clocks, nil means
// real time). The mcmutants work verb matches each advertised campaign
// to a unit by spec manifest.
func DistWork(ws WorkSpec, parallel int, sleep func(time.Duration)) ([]WorkUnit, error) {
	return DistWorkOpts(ws, DistWorkOptions{Parallel: parallel, Sleep: sleep})
}

// DistWorkOpts is DistWork with the full option set.
func DistWorkOpts(ws WorkSpec, wo DistWorkOptions) ([]WorkUnit, error) {
	st, err := NewStudy()
	if err != nil {
		return nil, err
	}
	envs, err := ws.envParams()
	if err != nil {
		return nil, err
	}
	if ws.Iters <= 0 {
		return nil, fmt.Errorf("core: work spec needs positive iters")
	}
	salt := ""
	if wo.Cache != nil {
		if salt, err = ws.CacheSalt(); err != nil {
			return nil, err
		}
	}
	platforms := ws.platforms()
	ropts := dist.SchedRunnerOptions{
		Parallel:    wo.Parallel,
		Retries:     ws.Retries,
		Backoff:     time.Duration(ws.BackoffMS) * time.Millisecond,
		CellTimeout: time.Duration(ws.CellTimeoutMS) * time.Millisecond,
		Sleep:       wo.Sleep,
		Cache:       wo.Cache,
		CacheSalt:   salt,
	}
	switch ws.Kind {
	case "conformance":
		spec, work, err := st.fleetConformanceCampaign(platforms, ws.Seed)
		if err != nil {
			return nil, err
		}
		exec := st.conformanceExec(envs[0], work, ws.Iters)
		return []WorkUnit{{Campaign: "conformance", Spec: spec, Run: dist.SchedRunner(spec, exec, ropts)}}, nil
	case "evaluate":
		units := make([]WorkUnit, 0, len(platforms))
		for _, p := range platforms {
			spec, work, err := st.evaluateCampaign(p, envs, ws.Seed)
			if err != nil {
				return nil, err
			}
			exec := st.evaluateExec(p, work, ws.Iters)
			units = append(units, WorkUnit{
				Campaign: "evaluate." + p.Device,
				Spec:     spec,
				Run:      dist.SchedRunner(spec, exec, ropts),
			})
		}
		return units, nil
	default:
		return nil, fmt.Errorf("core: unknown work spec kind %q (conformance, evaluate)", ws.Kind)
	}
}

// DistOptions configures a campaign's distributed execution (see
// CampaignOptions.Dist).
type DistOptions struct {
	// Hub is where the coordinator registers; workers reach it through
	// the hub's HTTP routes or an in-process transport. Required.
	Hub *dist.Hub
	// Name is the coordinator registration name; empty means the spec
	// name. Must be unique on the hub while the campaign runs.
	Name string
	// Descriptor is the advertised worker descriptor, typically a
	// serialized WorkSpec (see WorkSpec.Descriptor).
	Descriptor json.RawMessage
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
	// Now overrides the coordinator clock (tests inject fakes).
	Now func() time.Time
	// Logf, when non-nil, receives coordination events.
	Logf func(format string, args ...any)
}

// runCampaign executes one campaign spec: locally through the
// scheduler, or — when o.Dist is set — through a registered
// coordinator whose cells worker processes execute. Both paths return
// the same sched.Report shape, so assembly downstream is shared, and
// an interruption wraps sched.ErrInterrupted either way.
func runCampaign[R any](ctx context.Context, spec sched.Spec, exec sched.Exec[R], o CampaignOptions, schedOpts sched.Options[R]) (*sched.Report[R], error) {
	if o.Dist != nil {
		return runDistCampaign[R](ctx, spec, o, schedOpts.Instances)
	}
	closer, err := applyCampaignOptions(o, spec, &schedOpts)
	if err != nil {
		return nil, err
	}
	defer closer()
	return sched.RunContext(ctx, spec, exec, schedOpts)
}

// runDistCampaign coordinates one campaign across worker processes:
// it opens the checkpoint (seeding already-completed cells as replayed
// segments on resume), registers a coordinator on the hub, persists
// incoming segments, waits for every cell to resolve, and assembles
// the final report — applying the same breaker post-pass a local run
// would, so the result is byte-identical at any shard count.
func runDistCampaign[R any](ctx context.Context, spec sched.Spec, o CampaignOptions, instances func(R) int) (*sched.Report[R], error) {
	d := o.Dist
	if d.Hub == nil {
		return nil, fmt.Errorf("core: distributed campaign needs a hub")
	}
	name := d.Name
	if name == "" {
		name = spec.Name
	}
	start := time.Now()
	if o.Resume && o.CheckpointPath == "" {
		return nil, fmt.Errorf("core: Resume requires CheckpointPath")
	}
	var ck *sched.Checkpoint
	if o.CheckpointPath != "" {
		var err error
		ck, err = sched.OpenCheckpointOpts(o.CheckpointPath, spec, o.Resume,
			sched.CheckpointOptions{FS: o.FS, FsyncEvery: o.FsyncEvery})
		if err != nil {
			return nil, err
		}
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
	coord, err := dist.NewCoordinator(name, spec, d.Descriptor, seed, dist.CoordinatorOptions{
		LeaseTTL:     d.LeaseTTL,
		RangeCells:   d.RangeCells,
		MaxReissues:  d.MaxReissues,
		StallTimeout: d.StallTimeout,
		Breaker:      d.WorkerBreaker,
		Now:          d.Now,
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
	if err := d.Hub.Register(name, coord); err != nil {
		return nil, err
	}
	defer d.Hub.Unregister(name)
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
