// Package sched is the campaign scheduler of the simulated device
// fleet: it turns any campaign — an ordered set of cells, typically
// (test × device × environment × iteration-budget) — into a job list
// executed by a bounded worker pool. The workers claim the cells still
// pending after checkpoint replay from one shared atomic cursor, in
// spec order, so an instant cell (a result-cache hit) never waits for
// a feeder goroutine to hand over the next one.
//
// The scheduler guarantees three properties the serial loops it
// replaces could not offer together:
//
//   - Determinism under parallelism. Each cell derives its own RNG
//     stream from the campaign seed via xrand.DeriveSeed, a pure
//     function of (seed, cell key): no cell's randomness depends on
//     which worker runs it or in what order, so workers=1 and
//     workers=16 produce bit-identical aggregate results.
//
//   - Robustness. Every cell attempt runs under panic recovery; errors
//     marked Transient are retried at once, each attempt on its own
//     split-seed stream, up to a bound; the campaign-level error
//     policy is either fail-fast (default: cancel outstanding work on
//     the first permanent failure) or collect (run everything, report
//     all failures).
//
//   - Resumability and observability. Completed cells are checkpointed
//     as JSONL records under a manifest hash of the campaign spec, so
//     an interrupted campaign resumes by replaying done cells instead
//     of re-running them, and OnProgress streams cumulative snapshots
//     (cells/sec, instances/sec, per-device busy time) that render as
//     one throughput line.
//
// Campaigns are cancellable: RunContext threads a context through the
// pool, workers check it between cells, and cancellation (or deadline
// expiry) drains the campaign — in-flight cells finish or are
// abandoned as incomplete, the checkpoint is synced, and the partial
// report counts the abandoned cells in Report.Interrupted. Abandoned
// cells are never checkpointed, so a resumed campaign re-runs them
// from their deterministic per-cell streams and ends byte-identical to
// an uninterrupted run.
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/xrand"
)

// Cell is one schedulable unit of a campaign. Key is the cell's stable
// identity: the RNG derivation path, the checkpoint record key, and the
// handle exec uses to look up its work. Device, when set, labels the
// simulated device the cell occupies, feeding per-device utilization.
type Cell struct {
	Key    string
	Device string
}

// Spec describes a campaign: a name, the root seed all cell streams
// derive from, and the ordered cell list. The order fixes the order of
// Report.Results and is part of the checkpoint manifest.
type Spec struct {
	Name  string
	Seed  uint64
	Cells []Cell
}

// Validate checks the spec is runnable: it has a name, at least one
// cell, and no duplicate cell keys.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("sched: campaign has no name")
	}
	if len(s.Cells) == 0 {
		return fmt.Errorf("sched: campaign %q has no cells", s.Name)
	}
	seen := make(map[string]bool, len(s.Cells))
	for _, c := range s.Cells {
		if c.Key == "" {
			return fmt.Errorf("sched: campaign %q has a cell with an empty key", s.Name)
		}
		if seen[c.Key] {
			return fmt.Errorf("sched: campaign %q has duplicate cell key %q", s.Name, c.Key)
		}
		seen[c.Key] = true
	}
	return nil
}

// CellRand returns the RNG for one attempt of one cell. It is a pure
// function of (seed, campaign name, cell key, attempt): retries draw
// fresh randomness, but nothing depends on scheduling order.
func (s *Spec) CellRand(key string, attempt int) *xrand.Rand {
	return xrand.NewFromPath(s.Seed, s.Name, key, "attempt-"+strconv.Itoa(attempt))
}

// RetryBackoff returns the wait before retrying the operation named by
// key after failed attempt (0-based): clock.Backoff of the base,
// uncapped, with its jitter u drawn from the key's split-seed RNG. The
// dist worker paces its RPC retries and lease renewals with it. The
// jitter decorrelates timing across a worker fleet — no synchronized
// retry stampede when many workers hit a transient condition at once —
// while staying a pure function of (seed, name, key, attempt), so the
// schedules are reproducible run to run.
func (s *Spec) RetryBackoff(key string, attempt int, base time.Duration) time.Duration {
	u := xrand.NewFromPath(s.Seed, s.Name, key, "backoff-"+strconv.Itoa(attempt)).Float64()
	return clock.Backoff(base, 0, attempt, u)
}

// Exec runs one cell attempt. The ctx is the campaign's (or, with
// Options.CellTimeout, the cell's deadline-bounded child); executors
// doing unbounded work should poll it. The rng is the cell's private
// stream; the returned value must round-trip through JSON when
// checkpointing is enabled. Exec is called from multiple goroutines and
// must not mutate shared state.
type Exec[R any] func(ctx context.Context, cell Cell, rng *xrand.Rand) (R, error)

// Options configures one campaign run.
type Options[R any] struct {
	// Workers bounds the pool; values < 1 mean 1.
	Workers int
	// MaxRetries is how many times a transiently-failing cell is
	// retried after its first attempt.
	MaxRetries int
	// CellTimeout, when positive, bounds each cell's wall-clock time:
	// the cell's exec runs under a deadline-bounded child context and an
	// overrun fails that one cell (it is not an interruption — the
	// campaign continues under its error policy).
	CellTimeout time.Duration
	// Collect switches the error policy from fail-fast (default) to
	// collect: every cell runs, failures accumulate in the report.
	Collect bool
	// Breaker, when non-nil, enables the per-device circuit breaker:
	// a device failing Threshold cells in a row is quarantined and the
	// campaign continues on the surviving fleet (see BreakerOptions).
	// A breaker implies the collect error policy — device failures
	// feed the breaker instead of aborting the campaign.
	Breaker *BreakerOptions
	// Checkpoint, when non-nil, records completed cells and replays
	// cells already done in a previous run.
	Checkpoint *Checkpoint
	// Cache, when non-nil, is the cross-campaign result cache: each
	// cell is consulted under its cell digest before executing, and
	// successfully-validated results are published back. The cache is
	// an optimization, never a dependency — a missing, corrupt or
	// failing cache only costs recomputation (see ResultCache).
	Cache ResultCache
	// CacheSalt folds the workload parameters the exec closure bakes in
	// (iteration counts, fault model, retry policy) into the cell
	// digests, so two campaigns share cache entries only when executing
	// a cell must produce the same value. Required whenever Cache is
	// set and the exec is not a pure function of (spec, cell, rng).
	CacheSalt string
	// OnCellStart, when non-nil, is called as each cell begins
	// executing (not for replayed cells). Calls are serialized, so the
	// callback may mutate shared state without its own locking.
	OnCellStart func(Cell)
	// OnProgress, when non-nil, receives cumulative campaign snapshots:
	// one every ProgressEvery while the campaign runs, plus exactly one
	// final snapshot (Progress.Final) carrying the settled verdicts,
	// delivered before RunContext returns. Calls are serialized and
	// Progress.Done never decreases from one snapshot to the next, so
	// streaming consumers (the serve SSE hub) may drop intermediate
	// snapshots and still converge on the truth.
	OnProgress func(Progress)
	// ProgressEvery is the OnProgress snapshot cadence; zero or
	// negative means DefaultProgressEvery. The final snapshot is
	// emitted regardless.
	ProgressEvery time.Duration
	// Instances extracts a cell result's instance count for the
	// Progress.Instances counter and its instances/sec rate. Optional.
	Instances func(R) int
	// NewWorkerExec, when non-nil, builds a private Exec per worker
	// goroutine, letting executors carry reusable scratch (warm devices,
	// runners, iteration plans) without any cross-worker sharing. The
	// factory is called once per worker at pool start; the Exec it
	// returns is only ever invoked from that worker's goroutine, so it
	// may freely mutate its own state. It replaces RunContext's exec
	// argument, which may then be nil. Cell randomness still derives
	// purely from (seed, cell key, attempt), so campaigns remain
	// bit-identical at every worker count.
	NewWorkerExec func() Exec[R]
}

// CellResult is one cell's outcome in the report.
type CellResult[R any] struct {
	Cell  Cell
	Value R
	// Err is non-nil when the cell permanently failed (or was aborted
	// by fail-fast before running).
	Err error
	// Attempts counts executions, 0 for replayed or aborted cells.
	Attempts int
	// Replayed marks cells restored from the checkpoint.
	Replayed bool
	// CacheHit marks cells served from the result cache instead of
	// executing; Attempts is 0 for them.
	CacheHit bool
	// Quarantined marks cells skipped (or discarded) because their
	// device's circuit breaker was open; Err is ErrQuarantined.
	Quarantined bool
	// Interrupted marks cells abandoned because the campaign context
	// was cancelled before they completed; Err wraps ErrInterrupted.
	// Interrupted cells are pending, not failed: they were never
	// checkpointed, so a resume re-runs them.
	Interrupted bool
}

// Report is a completed campaign: per-cell results in spec order plus
// aggregate counters.
type Report[R any] struct {
	Spec     Spec
	Results  []CellResult[R]
	Executed int
	Replayed int
	Failed   int
	Aborted  int
	// Quarantined counts cells skipped by the device circuit breaker.
	Quarantined int
	// Interrupted counts cells abandoned by campaign cancellation —
	// still pending, resumable from the checkpoint.
	Interrupted int
	// Retried counts extra attempts beyond the first across surviving
	// cells.
	Retried int
	// StorageDegraded is true when the checkpoint hit a persistent
	// storage failure (ENOSPC, EIO) mid-campaign and degraded to
	// in-memory operation: results are complete and correct, but cells
	// completed after the failure are not durably checkpointed and
	// would re-run on resume.
	StorageDegraded bool
	// StorageErr is the degradation cause rendered as text.
	StorageErr string
	// CacheHits, CacheMisses and CacheCorrupt count result-cache
	// consultations: verified entries served, absent entries, and
	// entries that failed verification (quarantined and recomputed).
	// They are observability only — no campaign artifact encodes them,
	// which is what keeps warm and cold runs byte-identical.
	CacheHits    int
	CacheMisses  int
	CacheCorrupt int
	// CacheDegraded is true when the result cache hit a persistent
	// storage failure and switched to pass-through: results are
	// complete and correct, the run just stopped reusing or publishing
	// entries. Unlike StorageDegraded it never degrades the exit
	// status — the cache is an optimization, not a dependency.
	CacheDegraded bool
	// CacheErr is the cache degradation cause rendered as text.
	CacheErr string
	// Health summarizes per-device fleet health; populated when the
	// breaker is enabled, sorted by device name.
	Health []DeviceHealth
	// WallSeconds is the campaign's host duration end to end.
	WallSeconds float64
}

// Values returns the result values in spec order; it panics if any cell
// failed, so callers check Run's error (fail-fast) or Failed first.
func (r *Report[R]) Values() []R {
	out := make([]R, len(r.Results))
	for i, c := range r.Results {
		if c.Err != nil {
			panic(fmt.Sprintf("sched: Values on failed campaign: cell %s: %v", c.Cell.Key, c.Err))
		}
		out[i] = c.Value
	}
	return out
}

// FirstErr returns the first failed cell's error in spec order, or nil.
func (r *Report[R]) FirstErr() error {
	for _, c := range r.Results {
		if c.Err != nil {
			return fmt.Errorf("sched: cell %s: %w", c.Cell.Key, c.Err)
		}
	}
	return nil
}

// ErrAborted marks cells that never ran because the campaign was
// aborted: by fail-fast, or by a hard checkpoint failure under either
// error policy.
var ErrAborted = fmt.Errorf("sched: campaign aborted")

// Run executes the campaign under context.Background(); see RunContext.
func Run[R any](spec Spec, exec Exec[R], opts Options[R]) (*Report[R], error) {
	return RunContext(context.Background(), spec, exec, opts)
}

// RunContext executes the campaign. Results are returned in spec order
// regardless of completion order, so any aggregation over them is
// deterministic under parallelism. Under the fail-fast policy the
// first permanent cell failure is returned as the error (the partial
// report is still returned); under collect, the error is nil and the
// caller inspects Report.Failed / FirstErr.
//
// Cancelling ctx (or letting its deadline expire) drains the campaign:
// unclaimed cells are abandoned without running, in-flight cells are
// abandoned as soon as they observe the cancellation, the checkpoint —
// which holds only fully-completed cells — is synced, and RunContext
// returns the partial report with an error wrapping ErrInterrupted.
// Abandoned cells carry ErrInterrupted and count in Report.Interrupted;
// they are pending, not failed, and a resumed run completes them with
// results identical to an uninterrupted campaign.
func RunContext[R any](ctx context.Context, spec Spec, exec Exec[R], opts Options[R]) (*Report[R], error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(spec.Cells) {
		workers = len(spec.Cells)
	}
	rep := &Report[R]{Spec: spec, Results: make([]CellResult[R], len(spec.Cells))}
	start := time.Now()
	// A breaker implies collect: device failures feed the breaker
	// instead of aborting the campaign.
	collect := opts.Collect || opts.Breaker != nil
	var breaker *fleetBreaker
	if opts.Breaker != nil {
		breaker = newFleetBreaker(&spec, *opts.Breaker)
	}

	// Replay checkpointed cells and queue the rest. Only this goroutine
	// runs until the workers and the progress stream start below, so
	// the replay counts need no lock.
	pending := make([]int, 0, len(spec.Cells))
	for i, cell := range spec.Cells {
		rep.Results[i].Cell = cell
		if opts.Checkpoint != nil {
			if raw, done := opts.Checkpoint.Done(cell.Key); done {
				var v R
				if err := decodeValue(raw, &v); err != nil {
					return nil, fmt.Errorf("sched: checkpoint replay of %s: %w", cell.Key, err)
				}
				rep.Results[i].Value = v
				rep.Results[i].Replayed = true
				rep.Replayed++
				breaker.resolve(cell.Device, i, true)
				continue
			}
		}
		pending = append(pending, i)
	}

	// mu guards the report counters, the progress-only counters beside
	// them (instances and per-device busy seconds), the abort flag and
	// checkpoint appends. Every progress snapshot is a projection of
	// these counters taken under mu.
	var (
		mu         sync.Mutex
		instances  int
		busy       map[string]float64
		abort      bool  // fail-fast or a hard checkpoint failure tripped
		abortCause error // the failure that tripped it
	)
	stream := StreamProgress(opts.OnProgress, opts.ProgressEvery, func() Progress {
		mu.Lock()
		defer mu.Unlock()
		return progressOf(rep, instances, busy, time.Since(start).Seconds())
	})
	// record checkpoints cell i's resolved value, with mu held, and
	// reports whether the cell stands. A checkpoint degrades on ENOSPC
	// and EIO and returns nil; any other error is a hard failure, and it
	// fails the cell and aborts the campaign under either error policy,
	// whether the value was executed or served from the cache.
	record := func(i int, v R) bool {
		if opts.Checkpoint == nil {
			return true
		}
		cerr := opts.Checkpoint.record(spec.Cells[i].Key, v)
		if cerr == nil {
			return true
		}
		rep.Results[i].Err = cerr
		rep.Failed++
		if !abort {
			abort, abortCause = true, cerr
		}
		return false
	}

	var digests cellDigests
	if opts.Cache != nil {
		digests = spec.cellDigests(opts.CacheSalt)
	}
	// Workers claim pending[cursor] in turn; see the package comment.
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wexec := exec
			if opts.NewWorkerExec != nil {
				wexec = opts.NewWorkerExec()
			}
			var cellDigest func(Cell) string
			if opts.Cache != nil {
				cellDigest = digests.hasher()
			}
			for {
				n := cursor.Add(1) - 1
				if n >= int64(len(pending)) {
					return
				}
				i := pending[n]
				cell := spec.Cells[i]
				// Cancellation check between cells: once the campaign ctx
				// is dead, remaining cells are abandoned as incomplete —
				// never recorded as failures, never checkpointed — so the
				// drain leaves a cleanly resumable state.
				if ctx.Err() != nil {
					rep.Results[i].Err = ErrInterrupted
					rep.Results[i].Interrupted = true
					mu.Lock()
					rep.Interrupted++
					mu.Unlock()
					continue
				}
				mu.Lock()
				aborted := abort
				mu.Unlock()
				if aborted {
					rep.Results[i].Err = ErrAborted
					mu.Lock()
					rep.Aborted++
					mu.Unlock()
					continue
				}
				if breaker.shouldSkip(cell.Device, i) {
					rep.Results[i].Err = ErrQuarantined
					rep.Results[i].Quarantined = true
					mu.Lock()
					rep.Quarantined++
					mu.Unlock()
					continue
				}
				// Consult the result cache before executing. A verified hit
				// resolves the cell without touching the simulator; it still
				// feeds the breaker (as the success it recorded) and the
				// checkpoint (resume must not depend on the cache retaining
				// the entry). A corrupt or undecodable entry — already
				// quarantined by the cache — just recomputes.
				var cacheDigest string
				if opts.Cache != nil {
					cacheDigest = cellDigest(cell)
					payload, hit, corrupt := opts.Cache.Get(cacheDigest)
					if hit {
						var v R
						if uerr := decodeValue(payload, &v); uerr != nil {
							// The envelope verified but the value no longer
							// decodes as R: the result type moved underneath
							// the cache. Same remedy as corruption.
							hit, corrupt = false, true
						} else {
							rep.Results[i].Value = v
							mu.Lock()
							ok := record(i, v)
							if ok {
								rep.Results[i].CacheHit = true
								rep.CacheHits++
							}
							mu.Unlock()
							breaker.resolve(cell.Device, i, ok)
							continue
						}
					}
					mu.Lock()
					if corrupt {
						rep.CacheCorrupt++
					} else {
						rep.CacheMisses++
					}
					mu.Unlock()
				}
				if opts.OnCellStart != nil {
					mu.Lock()
					opts.OnCellStart(cell)
					mu.Unlock()
				}
				cellCtx, cancelCell := ctx, context.CancelFunc(nil)
				if opts.CellTimeout > 0 {
					cellCtx, cancelCell = context.WithTimeout(ctx, opts.CellTimeout)
				}
				cellStart := time.Now()
				value, attempts, err := runCell(cellCtx, &spec, cell, wexec, &opts)
				if cancelCell != nil {
					cancelCell()
				}
				wall := time.Since(cellStart)
				if err != nil && ctx.Err() != nil && isContextErr(err) {
					// The campaign ctx died while this cell was in flight and
					// the cell's failure is that cancellation surfacing — an
					// abandoned cell, not a failed one. (A cell-timeout
					// overrun with the campaign ctx alive takes the ordinary
					// failure path below instead.)
					rep.Results[i].Err = ErrInterrupted
					rep.Results[i].Interrupted = true
					rep.Results[i].Attempts = attempts
					mu.Lock()
					rep.Interrupted++
					mu.Unlock()
					continue
				}
				if err == nil && opts.CellTimeout > 0 && wall > opts.CellTimeout {
					// The deadline passed between two of the exec's polls:
					// the timer that cancels cellCtx runs only once a
					// processor is free, which on a busy host can be many
					// milliseconds late. An overrun fails the cell however
					// late the cancellation would have landed.
					var zero R
					value = zero
					err = fmt.Errorf("sched: cell %s overran its %v timeout: %w",
						cell.Key, opts.CellTimeout, context.DeadlineExceeded)
				}
				rep.Results[i].Value = value
				rep.Results[i].Err = err
				rep.Results[i].Attempts = attempts
				ok := err == nil
				mu.Lock()
				rep.Executed++
				rep.Retried += attempts - 1
				if cell.Device != "" {
					if busy == nil {
						busy = map[string]float64{}
					}
					busy[cell.Device] += wall.Seconds()
				}
				if !ok {
					rep.Failed++
					if !collect && !abort {
						abort = true
						abortCause = fmt.Errorf("sched: cell %s: %w", cell.Key, err)
					}
				} else if ok = record(i, value); ok && opts.Instances != nil {
					instances += opts.Instances(value)
				}
				mu.Unlock()
				// Publish after validation: only a cell that completed
				// cleanly — executed without error and, when checkpointing,
				// durably recorded — enters the cache. Failed, faulted,
				// interrupted and aborted cells never do.
				if opts.Cache != nil && ok {
					if data, merr := json.Marshal(value); merr == nil {
						opts.Cache.Put(cacheDigest, data)
					}
				}
				breaker.resolve(cell.Device, i, ok)
			}
		}()
	}
	wg.Wait()
	// The workers are done; stopping the ticker too leaves this
	// goroutine the counters' only reader and writer again, so the
	// breaker post-pass below may rewrite them without mu.
	stream.Stop()
	if opts.Breaker != nil {
		// Settle quarantine verdicts in spec order: speculative results
		// of quarantined cells are discarded, counters recomputed, and
		// per-device health summarized — all worker-count-independent.
		applyBreaker(rep, *opts.Breaker)
	}
	rep.WallSeconds = time.Since(start).Seconds()
	var syncErr error
	if opts.Checkpoint != nil {
		// Flush recorded cells to stable storage before handing control
		// back: a drain followed by an immediate process exit must not
		// lose completed work to the page cache.
		syncErr = opts.Checkpoint.Sync()
		if derr := opts.Checkpoint.Degraded(); derr != nil {
			// The disk filled or failed mid-campaign and the checkpoint
			// went in-memory; the results are whole, their durability is
			// not. Callers surface this as a degraded completion (CLI
			// exit 2), never a crash.
			rep.StorageDegraded = true
			rep.StorageErr = derr.Error()
		}
	}
	if opts.Cache != nil {
		if derr := opts.Cache.Degraded(); derr != nil {
			// The cache disk filled or failed; the campaign recomputed
			// whatever it could not reuse. Reported, never fatal — and
			// never part of the exit status.
			rep.CacheDegraded = true
			rep.CacheErr = derr.Error()
		}
	}
	final := FinalProgress(rep, instances, rep.WallSeconds)
	final.DeviceBusy = busy
	stream.Finish(final)
	if !collect && abortCause != nil {
		return rep, abortCause
	}
	if rep.Interrupted > 0 {
		return rep, fmt.Errorf("sched: campaign %q interrupted: %d of %d cells not completed: %w (%v)",
			spec.Name, rep.Interrupted, len(spec.Cells), ErrInterrupted, ctx.Err())
	}
	if syncErr != nil {
		return rep, syncErr
	}
	return rep, nil
}

// CellDecoder is implemented by a cell value type that decodes its
// own checkpointed and cached bytes. The scheduler calls DecodeCell in
// place of json.Unmarshal, and so without encoding/json's validity
// scan: DecodeCell must fail on every input json.Unmarshal fails on
// and decode every other input to the value json.Unmarshal would. A
// type with only an UnmarshalJSON method still goes through
// json.Unmarshal, because encoding/json lets that method assume its
// input is valid JSON.
type CellDecoder interface {
	DecodeCell(data []byte) error
}

// decodeValue decodes a checkpointed or cached cell value.
func decodeValue[R any](data []byte, v *R) error {
	if d, ok := any(v).(CellDecoder); ok {
		return d.DecodeCell(data)
	}
	return json.Unmarshal(data, v)
}

// isContextErr reports whether err carries a context cancellation or
// deadline expiry anywhere in its chain.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runCell executes one cell's attempt/retry loop under panic recovery.
// A retry runs at once: its attempt draws a fresh split-seed stream, so
// waiting could not change its outcome.
func runCell[R any](ctx context.Context, spec *Spec, cell Cell, exec Exec[R], opts *Options[R]) (value R, attempts int, err error) {
	for attempt := 0; ; attempt++ {
		attempts++
		value, err = attemptCell(ctx, spec, cell, attempt, exec)
		if err == nil {
			return value, attempts, nil
		}
		if !IsTransient(err) || attempt >= opts.MaxRetries {
			return value, attempts, err
		}
	}
}

// attemptCell runs a single attempt, converting panics into errors so
// one bad cell cannot take down the whole fleet run.
func attemptCell[R any](ctx context.Context, spec *Spec, cell Cell, attempt int, exec Exec[R]) (value R, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("sched: cell %s panicked: %v\n%s", cell.Key, r, buf)
		}
	}()
	return exec(ctx, cell, spec.CellRand(cell.Key, attempt))
}
