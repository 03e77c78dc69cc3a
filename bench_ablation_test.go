package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// PTE pairing permutation, the memory stride (cache-line sharing), the
// communication scope, the stress access patterns, and the alignment
// barrier. Each reports mutant kill rates as metrics so the effect of
// the choice is visible directly in benchmark output.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mm"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

func ablationEnv() harness.Params {
	p := harness.PTEBaseline(8, 16)
	p.MaxWorkgroups = p.TestingWorkgroups + 4
	p.MemStressPct = 100
	p.MemStressIters = 8
	p.MemStressPattern = harness.StoreLoad
	p.PreStressPct = 80
	p.PreStressIters = 2
	p.MemStride = 2
	p.MemLocOffset = 1
	return p
}

func killRate(b *testing.B, devName string, env harness.Params, test *litmus.Test, iters int) float64 {
	b.Helper()
	prof, ok := gpu.ProfileByName(devName)
	if !ok {
		b.Fatalf("no device %q", devName)
	}
	dev, err := gpu.NewDevice(prof, gpu.Bugs{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := harness.NewRunner(dev, env)
	if err != nil {
		b.Fatal(err)
	}
	res, err := r.RunCtx(context.Background(), test, iters, xrand.New(33))
	if err != nil {
		b.Fatal(err)
	}
	return res.TargetRate()
}

// BenchmarkAblationPairing compares the co-prime permutation against
// the naive successor pairing prior work found ineffective. On
// partitioned-memory devices (NVIDIA-like), spreading pairs across the
// device is what generates cache-line interactions; the naive mapping
// keeps pairs adjacent and underperforms.
func BenchmarkAblationPairing(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	for _, naive := range []bool{false, true} {
		name := "coprime"
		if naive {
			name = "naive-v+1"
		}
		b.Run(name, func(b *testing.B) {
			env := ablationEnv()
			env.NaivePairing = naive
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = killRate(b, "NVIDIA", env, test, 8)
			}
			b.ReportMetric(rate, "kills/s")
		})
	}
}

// BenchmarkAblationStride sweeps the inter-instance memory stride. On
// line-pressure devices small strides put many instances on one cache
// line, whose contention is the only source of weak behavior — the
// mechanism behind the paper's memStride tuning parameter.
func BenchmarkAblationStride(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	for _, stride := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("stride-%d", stride), func(b *testing.B) {
			env := ablationEnv()
			env.MemStride = stride
			env.MemLocOffset = 0
			if stride > 1 {
				env.MemLocOffset = stride / 2
			}
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = killRate(b, "NVIDIA", env, test, 8)
			}
			b.ReportMetric(rate, "kills/s")
		})
	}
}

// BenchmarkAblationScope compares the paper's inter-workgroup scope
// with the intra-workgroup extension.
func BenchmarkAblationScope(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	for _, scope := range []harness.Scope{harness.InterWorkgroup, harness.IntraWorkgroup} {
		b.Run(scope.String(), func(b *testing.B) {
			env := ablationEnv()
			env.Scope = scope
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = killRate(b, "AMD", env, test, 8)
			}
			b.ReportMetric(rate, "kills/s")
		})
	}
}

// BenchmarkAblationStressPattern compares the four stress access
// patterns of prior work on a global-pressure device.
func BenchmarkAblationStressPattern(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("MP")
	for _, pat := range []harness.StressPattern{
		harness.StoreStore, harness.StoreLoad, harness.LoadStore, harness.LoadLoad,
	} {
		b.Run(pat.String(), func(b *testing.B) {
			env := ablationEnv()
			env.MemStressPattern = pat
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = killRate(b, "AMD", env, test, 8)
			}
			b.ReportMetric(rate, "kills/s")
		})
	}
}

// BenchmarkAblationBarrier measures the effect of the pre-test
// alignment barrier on the fine-grained-interleaving mutant.
func BenchmarkAblationBarrier(b *testing.B) {
	suite := mutation.MustGenerate()
	test, _ := suite.ByName("CoRR-mutant")
	for _, pct := range []int{0, 100} {
		b.Run(fmt.Sprintf("barrier-%d%%", pct), func(b *testing.B) {
			env := ablationEnv()
			env.BarrierPct = pct
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = killRate(b, "Intel", env, test, 8)
			}
			b.ReportMetric(rate, "kills/s")
		})
	}
}

// BenchmarkAblationPruning compares evaluating a TSO-strength platform
// with the full mutant suite against the pruned suite of Sec. 3.4: the
// pruned suite concentrates effort on observable mutants.
func BenchmarkAblationPruning(b *testing.B) {
	suite := mutation.MustGenerate()
	for i := 0; i < b.N; i++ {
		pruned, removed, err := mutation.Prune(suite, mm.TSO)
		_ = removed
		if err != nil {
			b.Fatal(err)
		}
		if len(pruned.Mutants) >= len(suite.Mutants) {
			b.Fatal("pruning removed nothing")
		}
	}
}
