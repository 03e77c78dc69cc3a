package gpu

import (
	"context"
	"testing"

	"repro/internal/xrand"
)

// Per-path microbenchmarks for the executor. Each one saturates a
// single interpreter path so a regression in any future change is
// attributable: issue-bound streaming, fence/barrier synchronization,
// single-line contention (pressure + line-in-flight accounting), and a
// MaxOutstanding-bound deep pipeline. All run warm on one device, so
// after the first iteration they exercise the zero-alloc reset path
// too.

// benchSpec builds a launch of wgs workgroups × wgSize threads where
// every thread runs the program produced by gen(tid).
func benchSpec(wgs, wgSize, memWords int, gen func(tid int) Program) LaunchSpec {
	progs := make([]Program, wgs*wgSize)
	for i := range progs {
		progs[i] = gen(i)
	}
	return LaunchSpec{Workgroups: wgs, WorkgroupSize: wgSize, MemWords: memWords, Programs: progs}
}

func benchRun(b *testing.B, spec LaunchSpec) {
	b.Helper()
	d := MustDevice(amdProfile(), Bugs{})
	rng := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.RunCtx(context.Background(), spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathIssueLoadStore streams loads and stores over disjoint
// addresses: no line contention, no synchronization — pure issue and
// completion throughput.
func BenchmarkPathIssueLoadStore(b *testing.B) {
	const wgs, wgSize = 16, 16
	spec := benchSpec(wgs, wgSize, wgs*wgSize*2, func(tid int) Program {
		base := uint32(tid * 2)
		return Program{
			{Op: OpStore, Addr: base, Imm: 1},
			{Op: OpLoad, Addr: base, Reg: 0},
			{Op: OpStore, Addr: base + 1, Imm: 2},
			{Op: OpLoad, Addr: base + 1, Reg: 1},
		}
	})
	benchRun(b, spec)
}

// BenchmarkPathFenceBarrier alternates memory ops with fences and
// workgroup barriers: the synchronization path (outstanding-drain
// stalls, barrier arrival/release, runnable-counter churn).
func BenchmarkPathFenceBarrier(b *testing.B) {
	const wgs, wgSize = 8, 16
	spec := benchSpec(wgs, wgSize, wgs*wgSize, func(tid int) Program {
		a := uint32(tid)
		return Program{
			{Op: OpStore, Addr: a, Imm: 1},
			{Op: OpFence},
			{Op: OpBarrier},
			{Op: OpLoad, Addr: a, Reg: 0},
			{Op: OpFence},
			{Op: OpBarrier},
			{Op: OpStore, Addr: a, Imm: 2},
		}
	})
	benchRun(b, spec)
}

// BenchmarkPathContention hammers one cache line from every thread:
// line-in-flight accounting, pressure-latency draws, and po-loc
// completion-time chaining all on the hottest possible line.
func BenchmarkPathContention(b *testing.B) {
	const wgs, wgSize = 8, 16
	spec := benchSpec(wgs, wgSize, 64, func(tid int) Program {
		a := uint32(tid % 4) // one line on every profile (LineWords >= 4)
		return Program{
			{Op: OpStressStore, Addr: a, Imm: uint32(tid)},
			{Op: OpStressLoad, Addr: a},
			{Op: OpStressStore, Addr: a, Imm: uint32(tid + 1)},
			{Op: OpStressLoad, Addr: a},
			{Op: OpExchange, Addr: a, Imm: uint32(tid), Reg: 0},
		}
	})
	benchRun(b, spec)
}

// BenchmarkPathDeepPipeline issues long independent store streams so
// every thread saturates MaxOutstanding: the steady state is issue
// stalls against a full pipeline plus batched completion drains.
func BenchmarkPathDeepPipeline(b *testing.B) {
	const wgs, wgSize, depth = 4, 16, 32
	spec := benchSpec(wgs, wgSize, wgs*wgSize*depth, func(tid int) Program {
		p := make(Program, depth)
		for i := range p {
			p[i] = Instr{Op: OpStore, Addr: uint32(tid*depth + i), Imm: uint32(i)}
		}
		return p
	})
	benchRun(b, spec)
}

// BenchmarkPathTracingOff and BenchmarkPathTracingOn run the same
// kernel through Run and RunTraced. The off variant must match the
// plain issue-path benchmarks' cost profile: with tracing disabled the
// executor pays exactly one predictable branch per would-be event, so
// any gap between TracingOff and the other Path benchmarks' trends is
// a regression in the gating, not in tracing itself.
func tracingSpec() LaunchSpec {
	const wgs, wgSize = 8, 16
	return benchSpec(wgs, wgSize, wgs*wgSize*2, func(tid int) Program {
		base := uint32(tid * 2)
		return Program{
			{Op: OpStore, Addr: base, Imm: 1},
			{Op: OpFence},
			{Op: OpLoad, Addr: base, Reg: 0},
			{Op: OpStore, Addr: base + 1, Imm: 2},
			{Op: OpLoad, Addr: base + 1, Reg: 1},
		}
	})
}

func BenchmarkPathTracingOff(b *testing.B) {
	benchRun(b, tracingSpec())
}

func BenchmarkPathTracingOn(b *testing.B) {
	spec := tracingSpec()
	d := MustDevice(amdProfile(), Bugs{})
	rng := xrand.New(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.RunTraced(spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}
