package gpu

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// tracedSpec builds a busy fenced kernel exercising all op kinds.
func tracedSpec() LaunchSpec {
	writer := Program{
		{Op: OpStressLoad, Addr: 3},
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpFence},
		{Op: OpStore, Addr: 1, Imm: 2},
	}
	reader := Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpFence},
		{Op: OpLoad, Addr: 0, Reg: 1},
		{Op: OpExchange, Addr: 2, Imm: 7, Reg: 2},
	}
	var noise Program
	for i := 0; i < 10; i++ {
		noise = append(noise, Instr{Op: OpStressLoad, Addr: 2})
		noise = append(noise, Instr{Op: OpStressStore, Addr: 3, Imm: 9})
	}
	return LaunchSpec{
		WorkgroupSize: 1, Workgroups: 4, MemWords: 4,
		Programs: []Program{writer, reader, noise, noise},
	}
}

func TestRunTracedMatchesRun(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	spec := tracedSpec()
	plain, err := d.RunCtx(context.Background(), spec, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	traced, trace, err := d.RunTraced(spec, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if plain.Stats.Ticks != traced.Stats.Ticks {
		t.Fatalf("tracing changed execution: %d vs %d ticks", plain.Stats.Ticks, traced.Stats.Ticks)
	}
	for i := range plain.Registers {
		for j := range plain.Registers[i] {
			if plain.Registers[i][j] != traced.Registers[i][j] {
				t.Fatal("tracing changed register results")
			}
		}
	}
}

// TestVerifyTraceOnConformantDevices: traces from every bug-free
// profile satisfy the simulator's guarantees.
func TestVerifyTraceOnConformantDevices(t *testing.T) {
	spec := tracedSpec()
	for _, p := range AllProfiles() {
		d := dev(t, p, Bugs{})
		rng := xrand.New(7)
		for i := 0; i < 30; i++ {
			_, trace, err := d.RunTraced(spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyTrace(spec, trace); err != nil {
				t.Fatalf("%s run %d: %v", p.ShortName, i, err)
			}
		}
	}
}

// TestTraceCatchesInjectedBugs: the defects violate exactly the
// properties VerifyTrace checks, seen from the trace side.
func TestTraceCatchesInjectedBugs(t *testing.T) {
	// Stale cache: load values diverge from the memory order.
	writer := preStressed(4, 2, Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpStore, Addr: 0, Imm: 2},
	})
	reader := preStressed(8, 1, Program{
		{Op: OpLoad, Addr: 0, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	})
	spec := LaunchSpec{
		WorkgroupSize: 1, Workgroups: 2, MemWords: 4,
		Programs: []Program{writer, reader},
	}
	d := dev(t, keplerProfile(), Bugs{StaleCache: true})
	rng := xrand.New(17)
	caught := false
	for i := 0; i < 400 && !caught; i++ {
		_, trace, err := d.RunTraced(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyTrace(spec, trace); err != nil {
			caught = true
			if !strings.Contains(err.Error(), "memory order") {
				t.Fatalf("unexpected verification failure: %v", err)
			}
		}
	}
	if !caught {
		t.Fatal("stale-cache bug invisible to trace verification")
	}

	// Fence dropping: completions cross retired fences.
	fencedWriter := preStressed(3, 2, Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpFence},
		{Op: OpStore, Addr: 1, Imm: 1},
	})
	var noise Program
	for i := 0; i < 12; i++ {
		noise = append(noise, Instr{Op: OpStressLoad, Addr: 0})
		noise = append(noise, Instr{Op: OpStressStore, Addr: 3, Imm: 9})
	}
	spec2 := LaunchSpec{
		WorkgroupSize: 1, Workgroups: 3, MemWords: 4,
		Programs: []Program{fencedWriter, noise, noise},
	}
	d2 := dev(t, amdProfile(), Bugs{DropFences: true})
	// With the fence dropped there is no fence-issue event at all, so
	// property 4 cannot flag it directly; instead observe that the
	// fence never appears in the trace.
	_, trace, err := d2.RunTraced(spec2, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range trace {
		if e.Op == OpFence {
			t.Fatal("dropped fence still traced")
		}
	}
}

func TestTraceEventString(t *testing.T) {
	e := TraceEvent{Tick: 5, Thread: 2, Kind: TraceComplete, Op: OpLoad, Addr: 3, Value: 9}
	s := e.String()
	for _, want := range []string{"t2", "@5", "complete", "ld[3]=9"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
	if TraceIssue.String() != "issue" || TraceComplete.String() != "complete" {
		t.Error("kind names wrong")
	}
}

func TestVerifyTraceDetectsTampering(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	spec := tracedSpec()
	_, trace, err := d.RunTraced(spec, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a load value: verification must notice.
	tampered := append([]TraceEvent(nil), trace...)
	found := false
	for i := range tampered {
		if tampered[i].Kind == TraceComplete && tampered[i].Op == OpLoad {
			tampered[i].Value += 100
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no load completion in trace")
	}
	if err := VerifyTrace(spec, tampered); err == nil {
		t.Fatal("tampered trace verified")
	}
}

func BenchmarkRunTraced(b *testing.B) {
	d := MustDevice(amdProfile(), Bugs{})
	spec := tracedSpec()
	rng := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.RunTraced(spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}
