// Package gpu simulates a hierarchically scheduled GPU device executing
// straight-line compute kernels over a shared atomic memory.
//
// The paper evaluates MC Mutants on four physical GPUs through Chrome's
// WebGPU stack; this package is the substitution substrate (see
// DESIGN.md): a discrete-time simulator whose weak memory behaviors
// arise mechanistically rather than from hard-coded rates. Threads
// issue instructions in order but memory operations complete out of
// order, with latencies inflated by contention on the memory system;
// program order per location and fence ordering are enforced as
// completion constraints, exactly the guarantees the WebGPU MCS
// requires — unless an injected bug removes one of them.
//
// The simulator's behavioral knobs live in Profile (per synthetic
// device) and Bugs (injected defects used by the correlation study of
// Section 5.4).
package gpu

import "fmt"

// Op enumerates kernel instructions. Kernels are straight-line: the
// testing shaders generated by the harness contain no control flow, by
// design (the paper's PTE avoids divergence).
type Op uint8

const (
	// OpLoad reads mem[Addr] into register Reg.
	OpLoad Op = iota
	// OpStore writes Imm to mem[Addr].
	OpStore
	// OpExchange atomically swaps mem[Addr] with Imm, loading the old
	// value into Reg.
	OpExchange
	// OpFence is a release/acquire fence: all prior memory operations
	// of the thread complete before any later one issues.
	OpFence
	// OpBarrier synchronizes all threads of a workgroup (a WGSL
	// control barrier). It also implies OpFence's memory ordering.
	OpBarrier
	// OpStressLoad is a load whose value is discarded; used by stress
	// threads and pre-stress sequences.
	OpStressLoad
	// OpStressStore is a store of Imm used purely for memory pressure.
	OpStressStore
)

// String returns a short mnemonic.
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "ld"
	case OpStore:
		return "st"
	case OpExchange:
		return "xchg"
	case OpFence:
		return "fence"
	case OpBarrier:
		return "barrier"
	case OpStressLoad:
		return "stress.ld"
	case OpStressStore:
		return "stress.st"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// IsMemory reports whether the op touches memory.
func (o Op) IsMemory() bool {
	return o == OpLoad || o == OpStore || o == OpExchange ||
		o == OpStressLoad || o == OpStressStore
}

// Instr is one kernel instruction.
type Instr struct {
	Op   Op
	Addr uint32 // memory word index (memory ops)
	Imm  uint32 // value stored (OpStore, OpExchange, OpStressStore)
	Reg  uint16 // destination register (OpLoad, OpExchange)
}

// Program is a straight-line per-thread instruction sequence.
type Program []Instr

// LaunchSpec describes one kernel dispatch.
type LaunchSpec struct {
	// WorkgroupSize is the number of threads per workgroup.
	WorkgroupSize int
	// Workgroups is the number of workgroups dispatched.
	Workgroups int
	// MemWords is the size of the shared atomic memory in 32-bit words.
	// Memory is zero-initialized, as in the paper's tests.
	MemWords int
	// Programs assigns a program to each thread, indexed by global
	// thread ID (workgroup*WorkgroupSize + local). Threads with an
	// empty program retire immediately.
	Programs []Program
}

// Validate checks the spec's structural invariants against a profile.
// A launch checks the same invariants in two places: the shape before
// the executor is touched, and every instruction while it is decoded
// into the step table (see exec.reset), with the same error text.
func (s *LaunchSpec) Validate() error {
	if err := s.validateShape(); err != nil {
		return err
	}
	for tid, p := range s.Programs {
		for i, in := range p {
			if in.Op > OpStressStore || in.Op.IsMemory() && int(in.Addr) >= s.MemWords {
				return s.instrError(tid, i, in)
			}
		}
	}
	return nil
}

// validateShape checks the dispatch dimensions and the program count.
func (s *LaunchSpec) validateShape() error {
	if s.WorkgroupSize <= 0 {
		return fmt.Errorf("gpu: workgroup size %d", s.WorkgroupSize)
	}
	if s.Workgroups <= 0 {
		return fmt.Errorf("gpu: workgroup count %d", s.Workgroups)
	}
	if s.MemWords <= 0 {
		return fmt.Errorf("gpu: memory size %d words", s.MemWords)
	}
	want := s.WorkgroupSize * s.Workgroups
	if len(s.Programs) != want {
		return fmt.Errorf("gpu: %d programs for %d threads", len(s.Programs), want)
	}
	return nil
}

// instrError describes why instruction i of thread tid is invalid: an
// unknown opcode, or a memory op whose address lies past MemWords.
func (s *LaunchSpec) instrError(tid, i int, in Instr) error {
	if in.Op > OpStressStore {
		return fmt.Errorf("gpu: thread %d instr %d: unknown opcode %d",
			tid, i, uint8(in.Op))
	}
	return fmt.Errorf("gpu: thread %d instr %d: address %d out of %d words",
		tid, i, in.Addr, s.MemWords)
}

// Threads returns the total number of threads launched.
func (s *LaunchSpec) Threads() int { return s.WorkgroupSize * s.Workgroups }

// RunStats aggregates counters from one kernel execution.
type RunStats struct {
	// Instructions is the number of instructions issued.
	Instructions int64
	// MemOps is the number of memory operations completed.
	MemOps int64
	// Ticks is the simulated duration of the kernel body.
	Ticks int64
	// StaleReads counts loads served stale values by a buggy cache.
	StaleReads int64
	// RelaxedRR counts same-location load-load reorderings permitted
	// by the coherence bug.
	RelaxedRR int64
	// DroppedFences counts fences elided by the fence-drop bug.
	DroppedFences int64
	// PressureStalls accumulates extra latency ticks attributed to
	// memory-system pressure.
	PressureStalls int64
	// CorruptedValues counts registers and memory words poisoned by an
	// injected result-corruption fault (see FaultModel).
	CorruptedValues int64
	// MaxGlobalInFlight is the high-water mark of in-flight memory ops.
	MaxGlobalInFlight int
}

// RunResult is the outcome of one kernel execution.
type RunResult struct {
	// Registers holds each thread's final register file.
	Registers [][]uint32
	// Memory is the final memory state.
	Memory []uint32
	// SimSeconds is the simulated wall time including launch overhead;
	// mutant death rates are computed against this clock.
	SimSeconds float64
	// Stats carries execution counters.
	Stats RunStats
}
