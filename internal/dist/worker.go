package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sched"
)

// RunRange executes a slice of campaign cells and returns their
// resolved segments. onCellStart, when non-nil, is invoked as each
// cell starts (serialized) — the worker hooks lease renewal there, so
// heartbeats happen at deterministic points instead of on a wall-
// clock goroutine. A drained (context-cancelled) range returns the
// segments it did resolve with a nil error; the coordinator re-issues
// the rest.
type RunRange func(ctx context.Context, cells []sched.Cell, onCellStart func()) ([]sched.Segment, error)

// SchedRunnerOptions configures the scheduler behind SchedRunner.
// Retries/Backoff/CellTimeout must match the submitting side's
// campaign options — they are part of the byte-identity contract
// (attempt counts and timeout failures appear in reports) — so the
// descriptor carries them and cmd/mcmutants plumbs them through.
type SchedRunnerOptions struct {
	Parallel    int
	Retries     int
	Backoff     time.Duration
	CellTimeout time.Duration
	// Sleep overrides retry waiting (tests inject fake clocks).
	Sleep func(time.Duration)
	// Cache, when non-nil, is the worker's local result cache; CacheSalt
	// must be derived from the campaign descriptor so every worker (and
	// the submitting side) addresses the same entries. Hits are tagged
	// on the delivered segments for fleet-wide aggregation.
	Cache     sched.ResultCache
	CacheSalt string
}

// SchedRunner adapts a campaign's exec function into a RunRange: the
// leased cells become a sub-spec sharing the full campaign's name and
// seed, so every cell's split-seed RNG stream — and therefore its
// result — is identical to a single-process run.
func SchedRunner[R any](spec sched.Spec, exec sched.Exec[R], opts SchedRunnerOptions) RunRange {
	return func(ctx context.Context, cells []sched.Cell, onCellStart func()) ([]sched.Segment, error) {
		sub := sched.Spec{Name: spec.Name, Seed: spec.Seed, Cells: cells}
		sopts := sched.Options[R]{
			Workers:     opts.Parallel,
			MaxRetries:  opts.Retries,
			Backoff:     opts.Backoff,
			CellTimeout: opts.CellTimeout,
			Collect:     true,
			Sleep:       opts.Sleep,
			Cache:       opts.Cache,
			CacheSalt:   opts.CacheSalt,
		}
		if onCellStart != nil {
			sopts.OnCellStart = func(sched.Cell) { onCellStart() }
		}
		rep, err := sched.RunContext(ctx, sub, exec, sopts)
		if err != nil && !errors.Is(err, sched.ErrInterrupted) {
			return nil, err
		}
		return sched.ExportSegments(rep)
	}
}

// WorkerOptions configures a worker's identity and its RPC
// resilience policy.
type WorkerOptions struct {
	// ID names the worker to the coordinator (lease ownership,
	// quarantine). Required.
	ID string
	// MaxRPCAttempts bounds retries of one RPC before the worker
	// gives up on the coordinator. < 1 means 8.
	MaxRPCAttempts int
	// RPCBackoff is the base retry backoff, doubled per attempt with
	// split-seed jitter (sched.Spec.RetryBackoff). <= 0 means 100ms.
	RPCBackoff time.Duration
	// AcquireWait is the fallback poll interval when the coordinator
	// says wait without a hint. <= 0 means 250ms.
	AcquireWait time.Duration
	// Sleep overrides waiting; Now overrides the renewal clock. Tests
	// inject fakes; nil means real time.
	Sleep func(time.Duration)
	Now   func() time.Time
	// Logf, when non-nil, receives worker events.
	Logf func(format string, args ...any)
}

func (o WorkerOptions) maxRPCAttempts() int {
	if o.MaxRPCAttempts < 1 {
		return 8
	}
	return o.MaxRPCAttempts
}

func (o WorkerOptions) rpcBackoff() time.Duration {
	if o.RPCBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return o.RPCBackoff
}

func (o WorkerOptions) acquireWait() time.Duration {
	if o.AcquireWait <= 0 {
		return 250 * time.Millisecond
	}
	return o.AcquireWait
}

func (o WorkerOptions) now() time.Time {
	if o.Now != nil {
		return o.Now()
	}
	return time.Now()
}

// Worker drains one campaign: acquire a leased range, execute it
// (renewing the lease at cell boundaries), deliver the segments,
// repeat until the coordinator reports done.
type Worker struct {
	transport Transport
	spec      sched.Spec
	run       RunRange
	opts      WorkerOptions
}

// NewWorker builds a worker. spec must be the full campaign spec
// rebuilt locally (its manifest is verified against the
// coordinator's); run executes leased cells.
func NewWorker(t Transport, spec sched.Spec, run RunRange, opts WorkerOptions) *Worker {
	return &Worker{transport: t, spec: spec, run: run, opts: opts}
}

// rpc runs one RPC with bounded, jittered retries. Crash simulation,
// an unknown campaign (the coordinator has unregistered it, so no
// retry can succeed) and context cancellation are terminal; everything
// else (network faults, 5xx) retries up to MaxRPCAttempts.
func (w *Worker) rpc(ctx context.Context, purpose string, f func() error) error {
	max := w.opts.maxRPCAttempts()
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		err := f()
		if err == nil || errors.Is(err, ErrWorkerCrashed) {
			return err
		}
		if errors.Is(err, ErrUnknownCampaign) {
			return fmt.Errorf("dist: worker %s: %s: %w", w.opts.ID, purpose, err)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("dist: worker %s: %s interrupted: %w", w.opts.ID, purpose, ctx.Err())
		}
		lastErr = err
		if attempt+1 < max {
			wait := w.spec.RetryBackoff(fmt.Sprintf("dist-rpc/%s/%s", w.opts.ID, purpose), attempt, w.opts.rpcBackoff())
			w.sleep(ctx, wait)
		}
	}
	return fmt.Errorf("dist: worker %s: %s failed after %d attempts: %w", w.opts.ID, purpose, max, lastErr)
}

func (w *Worker) sleep(ctx context.Context, d time.Duration) {
	if w.opts.Sleep != nil {
		w.opts.Sleep(d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run drains the campaign. It returns nil when the coordinator
// reports done, ErrWorkerCrashed under crash simulation, a
// ctx-wrapping error when interrupted, and other errors when the
// coordinator is unreachable past the retry budget or the advertised
// manifest does not match the locally-rebuilt spec.
func (w *Worker) Run(ctx context.Context) error {
	if w.opts.ID == "" {
		return fmt.Errorf("dist: worker needs an ID")
	}
	var info *WorkInfo
	err := w.rpc(ctx, "info", func() error {
		i, err := w.transport.Info(ctx)
		if err == nil {
			info = i
		}
		return err
	})
	if err != nil {
		return err
	}
	if m := w.spec.Manifest(); info.Manifest != m {
		return fmt.Errorf("dist: campaign %s manifest mismatch: coordinator %.12s, local %.12s — worker and coordinator disagree on the cell grid (version or flag skew)",
			info.Name, info.Manifest, m)
	}
	ttl := time.Duration(info.LeaseTTLMS) * time.Millisecond
	waitSeq := 0
	for {
		if ctx.Err() != nil {
			return fmt.Errorf("dist: worker %s interrupted: %w", w.opts.ID, ctx.Err())
		}
		var resp *AcquireResponse
		err := w.rpc(ctx, "acquire", func() error {
			r, err := w.transport.Acquire(ctx, AcquireRequest{Worker: w.opts.ID})
			if err == nil {
				resp = r
			}
			return err
		})
		if err != nil {
			return err
		}
		switch resp.State {
		case StateDone:
			return nil
		case StateWait:
			wait := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = w.opts.acquireWait()
			}
			waitSeq++
			// Jitter the poll so a fleet of waiting workers does not
			// stampede the coordinator in lockstep.
			wait = w.spec.RetryBackoff(fmt.Sprintf("dist-wait/%s/%d", w.opts.ID, waitSeq), 0, wait)
			w.sleep(ctx, wait)
		case StateLease:
			if err := w.runLease(ctx, ttl, resp.Lease); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: worker %s: coordinator sent unknown acquire state %q", w.opts.ID, resp.State)
		}
	}
}

// runLease executes one leased range and delivers its segments.
func (w *Worker) runLease(ctx context.Context, ttl time.Duration, l *Lease) error {
	cells := make([]sched.Cell, 0, len(l.Cells))
	for _, i := range l.Cells {
		if i < 0 || i >= len(w.spec.Cells) {
			return fmt.Errorf("dist: worker %s: lease %s cell index %d outside the campaign", w.opts.ID, l.ID, i)
		}
		cells = append(cells, w.spec.Cells[i])
	}
	w.logf("dist: worker %s leased %d cells (%s)", w.opts.ID, len(cells), l.ID)

	// Renewal happens at cell boundaries: deterministic points, no
	// wall-clock goroutine. The threshold is a split-seed jittered
	// fraction of the TTL so a worker fleet's renewals decorrelate;
	// losing the lease (or the coordinator) cancels the range so the
	// scheduler drains and the rest is re-issued.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lastRenew := w.opts.now()
	renewSeq := 0
	onCellStart := func() {
		if ttl <= 0 || rctx.Err() != nil {
			return
		}
		threshold := w.spec.RetryBackoff(fmt.Sprintf("dist-renew/%s/%d", l.ID, renewSeq), 0, ttl/3)
		if w.opts.now().Sub(lastRenew) < threshold {
			return
		}
		renewSeq++
		var resp *RenewResponse
		err := w.rpc(rctx, "renew", func() error {
			r, err := w.transport.Renew(rctx, RenewRequest{Worker: w.opts.ID, Lease: l.ID})
			if err == nil {
				resp = r
			}
			return err
		})
		lastRenew = w.opts.now()
		if err != nil || !resp.OK {
			w.logf("dist: worker %s lost lease %s; draining", w.opts.ID, l.ID)
			cancel()
		}
	}
	segs, err := w.run(rctx, cells, onCellStart)
	if err != nil {
		return fmt.Errorf("dist: worker %s: lease %s execution: %w", w.opts.ID, l.ID, err)
	}
	if len(segs) > 0 {
		// Deliver even a partial or orphaned range: duplicates are
		// discarded by identity, and completed work shouldn't re-run
		// just because the lease died. An interrupted worker delivers
		// on a short detached deadline — best-effort, like a drain.
		dctx := ctx
		if ctx.Err() != nil {
			var dcancel context.CancelFunc
			dctx, dcancel = context.WithTimeout(context.Background(), 5*time.Second)
			defer dcancel()
		}
		derr := w.rpc(dctx, "deliver", func() error {
			_, err := w.transport.Deliver(dctx, DeliverRequest{Worker: w.opts.ID, Lease: l.ID, Segments: segs})
			return err
		})
		if derr != nil {
			if errors.Is(derr, ErrWorkerCrashed) || ctx.Err() == nil {
				return derr
			}
			// Interrupted and the best-effort delivery failed: the
			// coordinator will re-issue; nothing is lost but time.
			w.logf("dist: worker %s: drain delivery failed: %v", w.opts.ID, derr)
		}
	}
	if ctx.Err() != nil {
		return fmt.Errorf("dist: worker %s interrupted: %w", w.opts.ID, ctx.Err())
	}
	return nil
}
