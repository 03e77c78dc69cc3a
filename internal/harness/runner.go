package harness

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/mm"
	"repro/internal/xrand"
)

// Runner executes litmus tests in one environment on one device.
//
// A Runner owns reusable per-iteration scratch (the iteration plan,
// outcome buffers and classifier key buffer), so running many
// iterations — or many cells — through one warm Runner is
// allocation-free in the steady state. The scratch makes a Runner,
// like its Device, single-goroutine: parallel campaigns use one Runner
// per worker.
type Runner struct {
	Device *gpu.Device
	Params Params
	// Lower, when set, post-processes every generated thread program —
	// the hook through which the wgsl toolchain's backend lowering
	// (including defective driver builds) is applied. It gets
	// runner-owned buffers, rebuilt every iteration, and may rewrite
	// them in place (wgsl's hook does); it must not retain them.
	Lower func(gpu.Program) gpu.Program
	// Classifier memoizes outcome classification; nil means the
	// process-wide shared classifier, so classifications are reused
	// across iterations, runners and campaign cells.
	Classifier *Classifier

	// scratch is reused across RunCtx/RunInto calls; see runnerScratch.
	scratch runnerScratch
}

// runnerScratch is the Runner's reusable per-iteration state. Every
// slice is overwritten before use each iteration; nothing in it is
// visible to callers except through deep copies (FirstViolation) or
// value types (histogram counts).
type runnerScratch struct {
	plan iterationPlan
	// outcomes[i] views instance i's registers/final values inside the
	// flat regVals/finalVals arenas.
	outcomes  []litmus.Outcome
	regVals   []mm.Val
	finalVals []mm.Val
	// keyBuf renders outcome keys for the classifier and histogram.
	keyBuf []byte
	// doms holds the value domain of every test this runner has run;
	// an entry also means the test passed Validate. It is keyed by
	// pointer identity, like the classifier's memo, so a runner whose
	// cells alternate between tests validates and builds each domain
	// once.
	doms map[*litmus.Test]map[mm.Val]bool
}

// NewRunner validates the environment against the device and returns a
// runner.
func NewRunner(d *gpu.Device, p Params) (*Runner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Runner{Device: d, Params: p}, nil
}

// WarmRunner is one scheduler worker's runner lifecycle: it keeps the
// last Runner it built and builds another only when the requested key
// changes. Campaign cells run in key order, so a worker rebuilds only
// at key boundaries, and one entry bounds what it retains to a single
// runner's scratch. Like a Runner, it belongs to one goroutine.
type WarmRunner[K comparable] struct {
	// New builds the runner for a key; it need not install faults.
	New func(K) (*Runner, error)
	key K
	r   *Runner
}

// Get returns the runner for key, building it when key differs from the
// previous call's. Every call installs faults on the device: SetFaults
// zeroes the injected-fault count, so each cell attempt starts
// FaultModel.LossAfter escalation exactly where a new device would.
func (w *WarmRunner[K]) Get(key K, faults gpu.FaultModel) (*Runner, error) {
	if w.r == nil || w.key != key {
		w.r = nil
		r, err := w.New(key)
		if err != nil {
			return nil, err
		}
		w.key, w.r = key, r
	}
	if err := w.r.Device.SetFaults(faults); err != nil {
		return nil, err
	}
	return w.r, nil
}

// Result summarizes running one test for some iterations in one
// environment on one device.
type Result struct {
	// TestName identifies the litmus test.
	TestName string
	// IsMutant mirrors the test's role.
	IsMutant bool
	// Mutator is the generating mutator family, if any.
	Mutator string
	// Iterations is the number of kernel launches that produced valid
	// results and were counted.
	Iterations int
	// Discarded counts iterations thrown away because an outcome carried
	// a value outside the test's write-value domain — the signature of
	// device-level result corruption. Discarded iterations contribute
	// nothing to Instances, SimSeconds or the histogram: poisoned data
	// must never be classified as a memory-model violation.
	Discarded int
	// Instances is the total number of test instances executed.
	Instances int
	// TargetCount is how many instances exhibited the target behavior;
	// for a mutant this is the number of kills, for a conformance test
	// the number of observed bugs.
	TargetCount int
	// Violations counts instances whose outcome the model disallows
	// (conformance failures, however they manifest).
	Violations int
	// SimSeconds is total simulated device time, the paper's time base
	// for rates and budgets.
	SimSeconds float64
	// Hist is the outcome histogram.
	Hist *litmus.Histogram
	// FirstViolation is the first outcome classified disallowed, when
	// any; bug reports explain it via the axiomatic checker.
	FirstViolation *litmus.Outcome
}

// TargetRate returns target behaviors per simulated second (the mutant
// death rate when the test is a mutant).
func (r *Result) TargetRate() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.TargetCount) / r.SimSeconds
}

// ViolationRate returns model violations per simulated second.
func (r *Result) ViolationRate() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.Violations) / r.SimSeconds
}

// Merge folds another result for the same test into r: counts,
// histograms and simulated seconds are summed, and FirstViolation keeps
// the earliest in merge order (r's own if set, else other's). Merging
// results from different tests is an error, catching misassembled
// campaign aggregations.
func (r *Result) Merge(other *Result) error {
	if other == nil {
		return nil
	}
	if other.TestName != r.TestName {
		return fmt.Errorf("harness: merging result of %q into %q", other.TestName, r.TestName)
	}
	r.Iterations += other.Iterations
	r.Discarded += other.Discarded
	r.Instances += other.Instances
	r.SimSeconds += other.SimSeconds
	if other.Hist != nil {
		if r.Hist == nil {
			// Size the merged map for the incoming outcome set up front:
			// campaign aggregation merges many per-cell histograms into
			// one, and the distinct-outcome set is usually identical
			// across cells, so this hint avoids nearly all map growth.
			r.Hist = litmus.NewHistogramSize(other.Hist.Distinct())
		}
		r.Hist.Merge(other.Hist)
	}
	if r.FirstViolation == nil && other.FirstViolation != nil {
		r.FirstViolation = other.FirstViolation.Clone()
	}
	// Recompute the derived counts from the histogram rather than
	// summing fields independently, so the invariants TargetCount ==
	// Hist.TargetCount() and Violations == Hist.Violations() survive
	// any merge order.
	if r.Hist != nil {
		r.TargetCount = r.Hist.TargetCount()
		r.Violations = r.Hist.Violations()
	} else {
		r.TargetCount += other.TargetCount
		r.Violations += other.Violations
	}
	return nil
}

// outcomeClass caches the classification of one outcome key.
type outcomeClass struct {
	target    bool
	violation bool
}

// RunCtx executes the test for the given number of iterations,
// classifying every instance outcome into a fresh Result. The rng
// drives all nondeterminism; equal seeds reproduce results exactly.
// Cancellation is checked between iterations and, on a coarse step
// budget, inside the device executor, so a draining campaign abandons
// the cell promptly. A cancelled run returns an error wrapping
// ctx.Err() and no result.
func (r *Runner) RunCtx(ctx context.Context, test *litmus.Test, iterations int, rng *xrand.Rand) (*Result, error) {
	res := &Result{}
	if err := r.RunInto(ctx, res, test, iterations, rng); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is RunCtx writing into a caller-owned Result, whose histogram
// (when already allocated) is reset and reused — together with the
// runner's own iteration scratch this makes the steady-state loop
// allocation-free (the per-iteration cancellation check is a
// non-blocking select on a captured channel and allocates nothing).
// res must not be shared with a Result still in use; everything in it
// is overwritten.
func (r *Runner) RunInto(ctx context.Context, res *Result, test *litmus.Test, iterations int, rng *xrand.Rand) error {
	if iterations <= 0 {
		return fmt.Errorf("harness: iterations=%d", iterations)
	}
	dom, ok := r.scratch.doms[test]
	if !ok {
		if err := test.Validate(); err != nil {
			return err
		}
		dom = test.ValueDomain()
		if r.scratch.doms == nil {
			r.scratch.doms = make(map[*litmus.Test]map[mm.Val]bool)
		}
		r.scratch.doms[test] = dom
	}
	hist := res.Hist
	if hist == nil {
		hist = litmus.NewHistogram()
	} else {
		hist.Reset()
	}
	*res = Result{
		TestName: test.Name,
		IsMutant: test.IsMutant,
		Mutator:  test.Mutator,
		Hist:     hist,
	}
	classifier := r.Classifier
	if classifier == nil {
		classifier = sharedClassifier
	}
	// The test's memo is resolved once per call, and its hits and
	// misses reach the shared counters once, on return (see Classifier).
	memo := classifier.reader(test)
	defer classifier.flush(&memo)
	plan := &r.scratch.plan
	cancelled := ctx.Done() // nil for context.Background(); the check is then branch-only
	for iter := 0; iter < iterations; iter++ {
		if cancelled != nil {
			select {
			case <-cancelled:
				return fmt.Errorf("harness: %s interrupted after %d of %d iterations: %w",
					test.Name, iter, iterations, ctx.Err())
			default:
			}
		}
		if err := plan.buildInto(test, &r.Params, rng); err != nil {
			return err
		}
		if r.Lower != nil {
			for i, prog := range plan.spec.Programs {
				plan.spec.Programs[i] = r.Lower(prog)
			}
		}
		run, err := r.Device.RunCtx(ctx, plan.spec, rng)
		if err != nil {
			// Typed device failures (gpu.DeviceError) carry their own
			// transience verdict, which the scheduler reads through
			// sched.IsTransient — no wrapping needed here.
			return err
		}
		// Validate every instance outcome against the test's write-value
		// domain before anything is counted. A single out-of-domain value
		// means the run's results cannot be trusted, so the whole
		// iteration is discarded rather than classified.
		outcomes := r.extractOutcomes(test, plan, run)
		valid := true
		for i := range outcomes {
			if !test.InDomain(outcomes[i], dom) {
				valid = false
				break
			}
		}
		if !valid {
			res.Discarded++
			continue
		}
		res.Iterations++
		res.Instances += plan.instances
		res.SimSeconds += run.SimSeconds
		for _, o := range outcomes {
			r.scratch.keyBuf = o.AppendKey(r.scratch.keyBuf[:0])
			cls, err := memo.classify(o, r.scratch.keyBuf)
			if err != nil {
				return err
			}
			target, violation := cls.target, cls.violation
			if violation && res.FirstViolation == nil {
				// Deep-copy: o's Regs/Final are windows into the
				// runner's reusable arenas and are overwritten by the
				// next iteration.
				res.FirstViolation = o.Clone()
			}
			res.Hist.AddKeyed(r.scratch.keyBuf, target, violation)
		}
	}
	if res.Iterations == 0 {
		// Every iteration was poisoned: the cell produced no usable data.
		// Fail with a transient corruption error so the scheduler retries
		// the cell under a fresh attempt seed (which re-rolls the faults).
		return &gpu.DeviceError{Kind: gpu.FaultCorrupt, Device: r.Device.Profile().ShortName}
	}
	res.TargetCount = res.Hist.TargetCount()
	res.Violations = res.Hist.Violations()
	return nil
}

// extractOutcomes reads every instance's registers and final memory out
// of a device run, into the runner's reusable outcome arenas. The
// returned outcomes alias those arenas and are valid until the next
// iteration.
func (r *Runner) extractOutcomes(test *litmus.Test, plan *iterationPlan, run *gpu.RunResult) []litmus.Outcome {
	s := &r.scratch
	n := plan.instances
	if cap(s.outcomes) < n {
		s.outcomes = make([]litmus.Outcome, n)
	}
	s.outcomes = s.outcomes[:n]
	if need := n * test.NumRegs; cap(s.regVals) < need {
		s.regVals = make([]mm.Val, need)
	} else {
		s.regVals = s.regVals[:need]
	}
	if need := n * test.NumLocs; cap(s.finalVals) < need {
		s.finalVals = make([]mm.Val, need)
	} else {
		s.finalVals = s.finalVals[:need]
	}
	for i := 0; i < n; i++ {
		regs := s.regVals[i*test.NumRegs : (i+1)*test.NumRegs : (i+1)*test.NumRegs]
		final := s.finalVals[i*test.NumLocs : (i+1)*test.NumLocs : (i+1)*test.NumLocs]
		for ri := 0; ri < test.NumRegs; ri++ {
			ref := plan.regOf[i][ri]
			regs[ri] = mm.Val(run.Registers[ref.tid][ref.reg])
		}
		for l := 0; l < test.NumLocs; l++ {
			final[l] = mm.Val(run.Memory[plan.locAddr[i][l]])
		}
		s.outcomes[i] = litmus.Outcome{Regs: regs, Final: final}
	}
	return s.outcomes
}
