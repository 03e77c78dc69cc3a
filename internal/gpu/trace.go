package gpu

import (
	"fmt"
	"sort"

	"repro/internal/xrand"
)

// TraceKind classifies trace events.
type TraceKind uint8

const (
	// TraceIssue marks an instruction entering the memory system (or a
	// fence/barrier retiring).
	TraceIssue TraceKind = iota
	// TraceComplete marks a memory operation reaching global
	// visibility.
	TraceComplete
)

// String names the kind.
func (k TraceKind) String() string {
	if k == TraceComplete {
		return "complete"
	}
	return "issue"
}

// TraceEvent is one step of a traced execution.
type TraceEvent struct {
	Tick   int64
	Thread int32
	Index  int32 // instruction index within the thread's program
	Kind   TraceKind
	Op     Op
	Addr   uint32
	// Value is the value read (loads, exchanges) or written (stores)
	// at completion; zero for issues and fences.
	Value uint32
}

// String renders one event compactly.
func (e TraceEvent) String() string {
	return fmt.Sprintf("t%-4d @%-6d %-8s %s[%d]=%d",
		e.Thread, e.Tick, e.Kind, e.Op, e.Addr, e.Value)
}

// RunTraced is Run with event recording: every instruction issue and
// memory-operation completion is captured in tick order. Tracing is
// for debugging and for the simulator's self-verification tests; it
// roughly doubles the cost of a run.
func (d *Device) RunTraced(spec LaunchSpec, rng *xrand.Rand) (*RunResult, []TraceEvent, error) {
	e, err := d.getExec(spec, rng)
	if err != nil {
		return nil, nil, err
	}
	// The trace is freshly allocated per traced run and ownership
	// transfers to the caller; only the executor itself is reused. This
	// is a debug path, so it is exempt from the zero-alloc contract.
	e.tracing = true
	e.trace = make([]TraceEvent, 0, 1024)
	err = e.run()
	trace := e.trace
	e.tracing = false
	e.trace = nil
	if err != nil {
		return nil, nil, err
	}
	return e.result(), trace, nil
}

// VerifyTrace checks a conformant execution's trace against the
// simulator's guarantees:
//
//  1. per-thread issues follow program order;
//  2. same-thread same-location completions follow issue order
//     (program order per location);
//  3. every load's value is the value of the latest completed store to
//     its address (reads are coherent with the global memory order);
//  4. no memory operation issued after a fence completes before an
//     operation issued before the fence by the same thread.
//
// It must only be applied to traces from bug-free devices — the
// injected defects violate exactly these properties, which is what
// TestTraceCatchesInjectedBugs asserts from the other side.
func VerifyTrace(spec LaunchSpec, trace []TraceEvent) error {
	events := append([]TraceEvent(nil), trace...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Tick < events[j].Tick })

	// 1. Program order of issues.
	lastIssue := map[int32]int32{}
	for _, e := range events {
		if e.Kind != TraceIssue {
			continue
		}
		if prev, ok := lastIssue[e.Thread]; ok && e.Index <= prev {
			return fmt.Errorf("gpu: thread %d issued instruction %d after %d", e.Thread, e.Index, prev)
		}
		lastIssue[e.Thread] = e.Index
	}

	// 2. Same-location completion order per thread.
	type threadLoc struct {
		thread int32
		addr   uint32
	}
	lastLocIdx := map[threadLoc]int32{}
	for _, e := range events {
		if e.Kind != TraceComplete || !e.Op.IsMemory() {
			continue
		}
		key := threadLoc{e.Thread, e.Addr}
		if prev, ok := lastLocIdx[key]; ok && e.Index < prev {
			return fmt.Errorf("gpu: thread %d completed %d before earlier op %d on addr %d",
				e.Thread, prev, e.Index, e.Addr)
		}
		lastLocIdx[key] = e.Index
	}

	// 3. Load values replay the memory order.
	mem := map[uint32]uint32{}
	for _, e := range events {
		if e.Kind != TraceComplete {
			continue
		}
		switch e.Op {
		case OpStore, OpStressStore:
			mem[e.Addr] = e.Value
		case OpExchange:
			if got := mem[e.Addr]; got != e.Value {
				return fmt.Errorf("gpu: exchange at tick %d read %d, memory order says %d",
					e.Tick, e.Value, got)
			}
			// The written value is not carried in the trace event for
			// exchanges (Value is the read); replay from the program.
			mem[e.Addr] = replayImm(spec, e)
		case OpLoad:
			if got := mem[e.Addr]; got != e.Value {
				return fmt.Errorf("gpu: load at tick %d (thread %d) read %d, memory order says %d",
					e.Tick, e.Thread, e.Value, got)
			}
		}
	}

	// 4. Fences separate completions.
	// For each thread, every completion of an op issued before a fence
	// must precede (in tick order) every completion of an op issued
	// after it. Since fences only retire when outstanding==0, it
	// suffices to check that a fence's issue tick is not preceded by
	// any later-index completion nor followed by any earlier-index
	// completion... which conditions 1 and 2 plus the retire rule
	// already imply for same-location pairs; check the cross-location
	// case directly.
	fenceIssue := map[int32][]TraceEvent{}
	for _, e := range events {
		if e.Kind == TraceIssue && (e.Op == OpFence || e.Op == OpBarrier) {
			fenceIssue[e.Thread] = append(fenceIssue[e.Thread], e)
		}
	}
	for _, e := range events {
		if e.Kind != TraceComplete {
			continue
		}
		for _, f := range fenceIssue[e.Thread] {
			if e.Index < f.Index && e.Tick > f.Tick {
				return fmt.Errorf("gpu: thread %d op %d completed at %d after fence %d retired at %d",
					e.Thread, e.Index, e.Tick, f.Index, f.Tick)
			}
			if e.Index > f.Index && e.Tick < f.Tick {
				return fmt.Errorf("gpu: thread %d op %d completed at %d before fence %d retired at %d",
					e.Thread, e.Index, e.Tick, f.Index, f.Tick)
			}
		}
	}
	return nil
}

// replayImm recovers the stored immediate of an exchange from the
// spec's program.
func replayImm(spec LaunchSpec, e TraceEvent) uint32 {
	prog := spec.Programs[e.Thread]
	if int(e.Index) < len(prog) {
		return prog[e.Index].Imm
	}
	return 0
}
