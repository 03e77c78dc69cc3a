// Package harness implements MCS testing environments (Section 4 of
// the paper): the context around a litmus test — thread counts, memory
// layout, stress heuristics — that determines how often interesting
// behaviors are observed.
//
// Two environment families are provided:
//
//   - SITE (single-instance testing environment): one test instance per
//     kernel launch, with the stress heuristics of prior work
//     (Kirkham et al., OOPSLA 2020).
//   - PTE (parallel testing environment, the paper's Sec. 4.1): every
//     testing thread participates in multiple test instances, paired by
//     a co-prime modular permutation with no control-flow divergence.
//
// A Runner executes a litmus test for a number of iterations in an
// environment on a simulated device, classifies every observed outcome
// with the axiomatic checker, and reports target-behavior rates against
// simulated time — the mutant death rates MC Mutants scores
// environments by.
package harness

import (
	"fmt"

	"repro/internal/xrand"
)

// StressPattern selects the access pair stress threads repeat,
// following prior work's four patterns.
type StressPattern int

const (
	// StoreStore repeats two stores.
	StoreStore StressPattern = iota
	// StoreLoad repeats a store then a load.
	StoreLoad
	// LoadStore repeats a load then a store.
	LoadStore
	// LoadLoad repeats two loads.
	LoadLoad
)

// String names the pattern.
func (p StressPattern) String() string {
	switch p {
	case StoreStore:
		return "store-store"
	case StoreLoad:
		return "store-load"
	case LoadStore:
		return "load-store"
	case LoadLoad:
		return "load-load"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// StressStrategy selects how stress threads are assigned to lines.
type StressStrategy int

const (
	// RoundRobin spreads stress threads across target lines.
	RoundRobin StressStrategy = iota
	// Chunked gives each stress thread one line to hammer.
	Chunked
)

// String names the strategy.
func (s StressStrategy) String() string {
	if s == Chunked {
		return "chunked"
	}
	return "round-robin"
}

// Scope selects which level of the GPU execution hierarchy the test
// threads communicate across. The paper evaluates the inter-workgroup
// scope only (Sec. 1.2) and names the full hierarchy as future work;
// IntraWorkgroup implements that extension: all roles of a test
// instance run within one workgroup.
type Scope int

const (
	// InterWorkgroup places communicating test threads in different
	// workgroups (the paper's setting).
	InterWorkgroup Scope = iota
	// IntraWorkgroup places all of an instance's roles in one
	// workgroup.
	IntraWorkgroup
)

// String names the scope.
func (s Scope) String() string {
	if s == IntraWorkgroup {
		return "intra-workgroup"
	}
	return "inter-workgroup"
}

// Params is a testing environment: the tunable parameters of prior
// work (17 knobs, Sec. 4.1 "Additional parameters") plus the parallel
// switch of PTE. The zero value is not meaningful; start from a preset
// or Random.
type Params struct {
	// Parallel selects PTE; false is SITE (single instance).
	Parallel bool
	// Scope selects the communication scope under test.
	Scope Scope
	// NaivePairing replaces the co-prime permutation with the simple
	// successor mapping v -> v+1 that prior work found ineffective; it
	// exists for the ablation study only.
	NaivePairing bool

	// 1. TestingWorkgroups is the number of workgroups whose threads
	// run test instances. Under SITE each test thread occupies its own
	// workgroup, so this is fixed by the test's thread count.
	TestingWorkgroups int
	// 2. MaxWorkgroups is the total dispatched workgroups; workgroups
	// beyond the testing ones are stress workgroups.
	MaxWorkgroups int
	// 3. WorkgroupSize is threads per workgroup.
	WorkgroupSize int

	// 4. ShufflePct is the percent chance per iteration that testing
	// thread IDs are randomly permuted.
	ShufflePct int
	// 5. BarrierPct is the percent chance per iteration that testing
	// threads align on a workgroup barrier before running the test.
	BarrierPct int

	// 6. MemStressPct is the percent chance per iteration that each
	// stress workgroup actively stresses memory.
	MemStressPct int
	// 7. MemStressIters is the number of access pairs per stress thread.
	MemStressIters int
	// 8. MemStressPattern is the stress access pattern.
	MemStressPattern StressPattern

	// 9. PreStressPct is the percent of testing threads that run a
	// stress prelude before their test roles, pushing the test accesses
	// into the contention window.
	PreStressPct int
	// 10. PreStressIters is the number of access pairs in the prelude.
	PreStressIters int
	// 11. PreStressPattern is the prelude's access pattern.
	PreStressPattern StressPattern

	// 12. ScratchMemWords is the stress region size in words.
	ScratchMemWords int
	// 13. StressLineSize is the width of a stress line in words.
	StressLineSize int
	// 14. StressTargetLines is how many scratch lines are stressed.
	StressTargetLines int
	// 15. StressStrategy assigns stress threads to lines.
	StressStrategy StressStrategy

	// 16. MemStride is the spacing in words between consecutive test
	// instances' locations; small strides make instances share cache
	// lines.
	MemStride int
	// 17. MemLocOffset is the offset of a test's second location within
	// its slot (aliasing distance between x and y).
	MemLocOffset int
}

// Validate checks parameter invariants.
func (p *Params) Validate() error {
	switch {
	case p.TestingWorkgroups <= 0:
		return fmt.Errorf("harness: TestingWorkgroups=%d", p.TestingWorkgroups)
	case p.MaxWorkgroups < p.TestingWorkgroups:
		return fmt.Errorf("harness: MaxWorkgroups=%d < TestingWorkgroups=%d",
			p.MaxWorkgroups, p.TestingWorkgroups)
	case p.WorkgroupSize <= 0:
		return fmt.Errorf("harness: WorkgroupSize=%d", p.WorkgroupSize)
	case p.MemStride <= 0:
		return fmt.Errorf("harness: MemStride=%d", p.MemStride)
	case p.MemLocOffset < 0 || p.MemLocOffset >= p.MemStride:
		return fmt.Errorf("harness: MemLocOffset=%d must be in [0,%d)", p.MemLocOffset, p.MemStride)
	case p.ScratchMemWords <= 0:
		return fmt.Errorf("harness: ScratchMemWords=%d", p.ScratchMemWords)
	case p.StressLineSize <= 0 || p.StressLineSize > p.ScratchMemWords:
		return fmt.Errorf("harness: StressLineSize=%d", p.StressLineSize)
	case p.StressTargetLines <= 0 || p.StressTargetLines*p.StressLineSize > p.ScratchMemWords:
		return fmt.Errorf("harness: StressTargetLines=%d exceeds scratch", p.StressTargetLines)
	case pctBad(p.ShufflePct) || pctBad(p.BarrierPct) || pctBad(p.MemStressPct) || pctBad(p.PreStressPct):
		return fmt.Errorf("harness: percentage parameter out of [0,100]")
	case p.MemStressIters < 0 || p.PreStressIters < 0:
		return fmt.Errorf("harness: negative stress iterations")
	case p.Scope < InterWorkgroup || p.Scope > IntraWorkgroup:
		return fmt.Errorf("harness: Scope=%d", p.Scope)
	case p.StressStrategy < RoundRobin || p.StressStrategy > Chunked:
		return fmt.Errorf("harness: StressStrategy=%d", p.StressStrategy)
	case patternBad(p.MemStressPattern) || patternBad(p.PreStressPattern):
		return fmt.Errorf("harness: stress pattern out of range (MemStressPattern=%d, PreStressPattern=%d)",
			p.MemStressPattern, p.PreStressPattern)
	}
	return nil
}

func pctBad(v int) bool { return v < 0 || v > 100 }

func patternBad(p StressPattern) bool { return p < StoreStore || p > LoadLoad }

// SITEBaseline reproduces the paper's SITE Baseline environment: a
// single test instance across 32 workgroups with no added stress
// (Sec. 5.1).
func SITEBaseline() Params {
	return Params{
		Parallel:          false,
		TestingWorkgroups: 2, // adjusted to the test's thread count at run time
		MaxWorkgroups:     32,
		WorkgroupSize:     1,
		ScratchMemWords:   1024,
		StressLineSize:    16,
		StressTargetLines: 2,
		MemStride:         16,
		MemLocOffset:      8,
	}
}

// PTEBaseline reproduces the paper's PTE Baseline: parallel instances
// with no added stress. The paper uses 1024 workgroups of 256 threads;
// the defaults here are scaled for simulation and can be overridden.
func PTEBaseline(workgroups, wgSize int) Params {
	return Params{
		Parallel:          true,
		TestingWorkgroups: workgroups,
		MaxWorkgroups:     workgroups,
		WorkgroupSize:     wgSize,
		ScratchMemWords:   2048,
		StressLineSize:    16,
		StressTargetLines: 2,
		MemStride:         4,
		MemLocOffset:      2,
	}
}

// Random draws a random environment of the given family, mirroring the
// random tuning runs of Sec. 5.1. Scale bounds the thread counts so
// simulated tuning stays affordable.
func Random(rng *xrand.Rand, parallel bool, scale Scale) Params {
	p := Params{
		Parallel:          parallel,
		ShufflePct:        rng.Intn(101),
		BarrierPct:        rng.Intn(101),
		MemStressPct:      rng.Intn(101),
		MemStressIters:    rng.IntBetween(2, scale.MaxStressIters),
		MemStressPattern:  StressPattern(rng.Intn(4)),
		PreStressPct:      rng.Intn(101),
		PreStressIters:    rng.IntBetween(1, scale.MaxPreStressIters),
		PreStressPattern:  StressPattern(rng.Intn(4)),
		ScratchMemWords:   1 << rng.IntBetween(8, 12),
		StressLineSize:    1 << rng.IntBetween(2, 5),
		StressTargetLines: rng.IntBetween(1, 8),
		StressStrategy:    StressStrategy(rng.Intn(2)),
		MemStride:         1 << rng.IntBetween(0, 6),
		MemLocOffset:      0,
	}
	if p.MemStride > 1 {
		p.MemLocOffset = rng.Intn(p.MemStride)
	}
	if p.StressTargetLines*p.StressLineSize > p.ScratchMemWords {
		p.StressTargetLines = p.ScratchMemWords / p.StressLineSize
		if p.StressTargetLines == 0 {
			p.StressTargetLines = 1
		}
	}
	if parallel {
		p.TestingWorkgroups = rng.IntBetween(scale.MinTestingWG, scale.MaxTestingWG)
		p.WorkgroupSize = 1 << rng.IntBetween(scale.MinWGSizeLog2, scale.MaxWGSizeLog2)
		p.MaxWorkgroups = p.TestingWorkgroups + rng.Intn(scale.MaxStressWG+1)
	} else {
		p.TestingWorkgroups = 2 // widened per test at run time
		p.WorkgroupSize = 1 << rng.IntBetween(0, scale.MaxWGSizeLog2)
		p.MaxWorkgroups = p.TestingWorkgroups + rng.Intn(scale.MaxStressWG+1)
	}
	return p
}

// Scale bounds random environment generation.
type Scale struct {
	MinTestingWG, MaxTestingWG   int
	MinWGSizeLog2, MaxWGSizeLog2 int
	MaxStressWG                  int
	MaxStressIters               int
	MaxPreStressIters            int
}

// DefaultScale is sized for simulated tuning runs: large enough for
// parallelism effects, small enough to run thousands of iterations.
func DefaultScale() Scale {
	return Scale{
		MinTestingWG: 2, MaxTestingWG: 16,
		MinWGSizeLog2: 3, MaxWGSizeLog2: 6,
		MaxStressWG:    8,
		MaxStressIters: 24, MaxPreStressIters: 8,
	}
}

// PaperScale mirrors the paper's environment sizes (up to 1024
// workgroups of 256 threads); full-scale runs are expensive under
// simulation and meant for the CLI, not the test suite.
func PaperScale() Scale {
	return Scale{
		MinTestingWG: 2, MaxTestingWG: 1024,
		MinWGSizeLog2: 5, MaxWGSizeLog2: 8,
		MaxStressWG:    64,
		MaxStressIters: 1024, MaxPreStressIters: 128,
	}
}
