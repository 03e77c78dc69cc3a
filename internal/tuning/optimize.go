package tuning

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/xrand"
)

// OptimizeConfig sizes the per-test environment search of Sec. 4.2
// ("Ideally, a test environment can be hyper-tuned per test and per
// device"): a random exploration phase followed by single-knob
// hill-climbing around the best candidate.
type OptimizeConfig struct {
	// ExploreRounds is the number of random environments sampled.
	ExploreRounds int
	// RefineRounds is the number of single-parameter mutations tried
	// around the incumbent.
	RefineRounds int
	// Iterations is kernel launches per candidate evaluation.
	Iterations int
	// Parallel selects the environment family.
	Parallel bool
	// Scale bounds the candidates.
	Scale harness.Scale
	// Seed drives the search.
	Seed uint64
}

// DefaultOptimizeConfig is sized for simulation-backed use.
func DefaultOptimizeConfig() OptimizeConfig {
	return OptimizeConfig{
		ExploreRounds: 16,
		RefineRounds:  16,
		Iterations:    4,
		Parallel:      true,
		Scale:         harness.DefaultScale(),
		Seed:          1,
	}
}

// OptimizedEnv is the search result.
type OptimizedEnv struct {
	// Env is the best environment found.
	Env harness.Params
	// Rate is its target-behavior rate (per simulated second).
	Rate float64
	// Kills is its target count during evaluation.
	Kills int
	// Evaluated counts candidate evaluations performed.
	Evaluated int
}

// Optimize searches for an environment maximizing the test's
// target-behavior rate on the device. For a mutant this is the death
// rate MC Mutants scores environments by; for a conformance test on a
// buggy platform it would be the bug reproduction rate. The search
// stops with ctx's error when ctx ends.
func Optimize(ctx context.Context, test *litmus.Test, deviceName string, cfg OptimizeConfig) (*OptimizedEnv, error) {
	if cfg.ExploreRounds < 1 {
		return nil, fmt.Errorf("tuning: ExploreRounds=%d", cfg.ExploreRounds)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("tuning: Iterations=%d", cfg.Iterations)
	}
	prof, ok := gpu.ProfileByName(deviceName)
	if !ok {
		return nil, fmt.Errorf("tuning: unknown device %q", deviceName)
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	envRng := root.Split()
	evaluate := func(env harness.Params) (float64, int, error) {
		r, err := harness.NewRunner(dev, env)
		if err != nil {
			return 0, 0, err
		}
		res, err := r.RunCtx(ctx, test, cfg.Iterations, root.Split())
		if err != nil {
			return 0, 0, err
		}
		return res.TargetRate(), res.TargetCount, nil
	}

	best := &OptimizedEnv{Rate: -1}
	for i := 0; i < cfg.ExploreRounds; i++ {
		env := harness.Random(envRng, cfg.Parallel, cfg.Scale)
		rate, kills, err := evaluate(env)
		if err != nil {
			return nil, err
		}
		best.Evaluated++
		if rate > best.Rate {
			best.Env, best.Rate, best.Kills = env, rate, kills
		}
	}
	for i := 0; i < cfg.RefineRounds; i++ {
		cand := neighbor(best.Env, envRng, cfg.Scale)
		rate, kills, err := evaluate(cand)
		if err != nil {
			return nil, err
		}
		best.Evaluated++
		if rate > best.Rate {
			best.Env, best.Rate, best.Kills = cand, rate, kills
		}
	}
	if best.Rate < 0 {
		best.Rate = 0
	}
	return best, nil
}

// neighbor re-draws one knob of the environment, keeping the result
// valid.
func neighbor(p harness.Params, rng *xrand.Rand, scale harness.Scale) harness.Params {
	fresh := harness.Random(rng, p.Parallel, scale)
	out := p
	switch rng.Intn(12) {
	case 0:
		out.TestingWorkgroups = fresh.TestingWorkgroups
		if out.MaxWorkgroups < out.TestingWorkgroups {
			out.MaxWorkgroups = out.TestingWorkgroups
		}
	case 1:
		out.MaxWorkgroups = out.TestingWorkgroups + rng.Intn(scale.MaxStressWG+1)
	case 2:
		out.WorkgroupSize = fresh.WorkgroupSize
	case 3:
		out.ShufflePct = fresh.ShufflePct
	case 4:
		out.BarrierPct = fresh.BarrierPct
	case 5:
		out.MemStressPct = fresh.MemStressPct
	case 6:
		out.MemStressIters = fresh.MemStressIters
		out.MemStressPattern = fresh.MemStressPattern
	case 7:
		out.PreStressPct = fresh.PreStressPct
		out.PreStressIters = fresh.PreStressIters
		out.PreStressPattern = fresh.PreStressPattern
	case 8:
		out.ScratchMemWords = fresh.ScratchMemWords
		out.StressLineSize = fresh.StressLineSize
		out.StressTargetLines = fresh.StressTargetLines
	case 9:
		out.StressStrategy = fresh.StressStrategy
	case 10:
		out.MemStride = fresh.MemStride
		out.MemLocOffset = fresh.MemLocOffset
	case 11:
		out.MemLocOffset = 0
		if out.MemStride > 1 {
			out.MemLocOffset = rng.Intn(out.MemStride)
		}
	}
	if err := out.Validate(); err != nil {
		return fresh // a safe, valid fallback
	}
	return out
}
