package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/diskio"
	"repro/internal/sched"
)

// CampaignOptions configures the one campaign runner every kind runs
// on (RunCampaign): parallelism, retry policy, checkpointing, progress
// streams, the result cache and distributed execution. The zero value
// is a serial, checkpoint-free local run. Every worker count yields
// identical results — cell RNG streams derive from the campaign seed
// and cell identity alone.
type CampaignOptions struct {
	// Workers bounds the scheduler's pool; < 1 means serial.
	Workers int
	// Retries and Backoff configure transient-failure handling per cell.
	// core.RunWorkSpec takes them, and CellTimeout, from the spec.
	Retries int
	Backoff time.Duration
	// CellTimeout bounds each cell attempt; expiry is an ordinary
	// permanent cell failure (retried, reported, breaker-visible), not a
	// campaign interruption, and makes the campaign collect. Zero means
	// no per-cell bound.
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
	// cell runs, and failed cells surface in the result instead of
	// aborting the campaign. A cell timeout or a Breaker implies it.
	Collect bool
	// Breaker, when non-nil, enables the per-device circuit breaker:
	// a device failing Threshold cells in a row is quarantined for
	// Cooldown cells and the campaign continues on the surviving fleet.
	Breaker *sched.BreakerOptions
	// Progress, when non-nil, receives one "<key> on <device>" line as
	// each cell starts (or, distributed, as its result is delivered).
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
	// Distributed campaigns always collect (there is no fail-fast abort
	// across workers); Workers and the retry policy apply on the worker
	// side via the descriptor, not here.
	Dist *Options
	// Cache, when non-nil, is the persistent result cache consulted
	// before each cell executes and published to after a cell succeeds,
	// under the campaign's cache salt, which holds every workload
	// parameter outside the scheduler spec, so a key can never serve a
	// result computed under different parameters. Cache hits change
	// nothing but time: artifacts stay byte-identical to a cold run. In
	// distributed mode the cache is consulted on the worker side, not
	// here.
	Cache sched.ResultCache
}

// Options configures a campaign's distributed execution (see
// CampaignOptions.Dist).
type Options struct {
	// Hub is where the coordinator registers; workers reach it through
	// the hub's HTTP routes or an in-process transport. Required.
	Hub *Hub
	// Name is the coordinator registration name (core.RunWorkSpec uses
	// the spec kind when it is empty). Names must be unique on the hub
	// while campaigns run.
	Name string
	// LeaseTTL, RangeCells and StallTimeout tune the coordinator; zero
	// values use CoordinatorOptions' defaults (10s leases, ranges of 8,
	// no stall bound).
	LeaseTTL     time.Duration
	RangeCells   int
	StallTimeout time.Duration
	// Logf, when non-nil, receives coordination events.
	Logf func(format string, args ...any)
}

// openCheckpoint opens the checkpoint o names for spec, resuming when
// o.Resume is set; nil when o names none. Local and distributed
// campaigns both open theirs here.
func openCheckpoint(o CampaignOptions, spec sched.Spec) (*sched.Checkpoint, error) {
	if o.CheckpointPath == "" {
		if o.Resume {
			return nil, fmt.Errorf("dist: Resume requires CheckpointPath")
		}
		return nil, nil
	}
	return sched.OpenCheckpointOpts(o.CheckpointPath, spec, o.Resume,
		sched.CheckpointOptions{FS: o.FS, FsyncEvery: o.FsyncEvery})
}

// RunCampaign executes one campaign spec: locally through the
// scheduler, each worker running its own exec from newExec, or — when
// o.Dist is set — through a registered coordinator whose cells worker
// processes execute with the same exec (SchedRunner). Both paths return
// the same sched.Report shape, so assembly downstream is shared, and an
// interruption wraps sched.ErrInterrupted either way. instances counts
// a value's executed test instances for progress. desc is the
// campaign's descriptor, which a coordinator advertises, and salt the
// cache salt; a distributed campaign needs the one and a cached
// campaign the other, so both are refused without them before any
// cell runs.
func RunCampaign[R any](ctx context.Context, spec sched.Spec, newExec func() sched.Exec[R], o CampaignOptions, instances func(R) int, desc json.RawMessage, salt string) (*sched.Report[R], error) {
	if (o.Dist != nil && desc == nil) || (o.Cache != nil && salt == "") {
		return nil, fmt.Errorf("dist: a distributed campaign needs its descriptor and a cached one its salt: run it through RunWorkSpec")
	}
	if o.Dist != nil {
		return coordinate[R](ctx, spec, o, desc, instances)
	}
	ck, err := openCheckpoint(o, spec)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		defer ck.Close()
	}
	schedOpts := sched.Options[R]{
		Workers:       o.Workers,
		MaxRetries:    o.Retries,
		Backoff:       o.Backoff,
		CellTimeout:   o.CellTimeout,
		Collect:       o.Collect || o.CellTimeout > 0,
		Breaker:       o.Breaker,
		OnProgress:    o.OnProgress,
		ProgressEvery: o.ProgressEvery,
		Cache:         o.Cache,
		CacheSalt:     salt,
		Checkpoint:    ck,
		Instances:     instances,
		NewWorkerExec: newExec,
	}
	if progress := o.Progress; progress != nil {
		schedOpts.OnCellStart = func(c sched.Cell) {
			progress(fmt.Sprintf("%s on %s", c.Key, c.Device))
		}
	}
	return sched.RunContext(ctx, spec, nil, schedOpts)
}

// coordinate runs one campaign across worker processes: it opens the
// checkpoint (seeding already-completed cells as replayed segments on
// resume), registers a coordinator on the hub, persists incoming
// segments, waits for every cell to resolve, and assembles the final
// report — applying the same breaker post-pass a local run would, so
// the result is byte-identical at any shard count.
func coordinate[R any](ctx context.Context, spec sched.Spec, o CampaignOptions, desc json.RawMessage, instances func(R) int) (*sched.Report[R], error) {
	d := o.Dist
	if d.Hub == nil {
		return nil, fmt.Errorf("dist: distributed campaign needs a hub")
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
	onStatus := func(st Status) {
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
	coord, err := NewCoordinator(d.Name, spec, desc, seed, CoordinatorOptions{
		LeaseTTL:     d.LeaseTTL,
		RangeCells:   d.RangeCells,
		StallTimeout: d.StallTimeout,
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
		return rep, fmt.Errorf("dist: distributed campaign %q interrupted: %d of %d cells pending: %w (%v)",
			spec.Name, rep.Interrupted, len(spec.Cells), sched.ErrInterrupted, waitErr)
	}
	if syncErr != nil {
		return rep, syncErr
	}
	return rep, nil
}
