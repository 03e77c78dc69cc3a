package gpu

// Allocation and reuse tests for the device's exec scratch: a warm
// Device must run kernels — including the per-event emit path with
// tracing off — without allocating, and reusing the scratch must not
// change any simulated result.

import (
	"context"
	"testing"

	"repro/internal/xrand"
)

// allocSpec is a moderately parallel kernel whose run retires hundreds
// of instructions, so any per-event allocation multiplies visibly.
func allocSpec() LaunchSpec {
	mp0 := Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpFence},
		{Op: OpStore, Addr: 1, Imm: 1},
	}
	mp1 := Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpFence},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	stress := Program{
		{Op: OpStore, Addr: 2, Imm: 7},
		{Op: OpLoad, Addr: 3, Reg: 0},
		{Op: OpStore, Addr: 4, Imm: 9},
		{Op: OpLoad, Addr: 2, Reg: 1},
		{Op: OpExchange, Addr: 5, Imm: 3, Reg: 2},
	}
	progs := make([]Program, 0, 16)
	progs = append(progs, mp0, mp1)
	for len(progs) < cap(progs) {
		progs = append(progs, stress)
	}
	return LaunchSpec{
		WorkgroupSize: 2,
		Workgroups:    8,
		MemWords:      64,
		Programs:      progs,
	}
}

// TestRunZeroAllocsWarm asserts the device hot path is allocation-free
// once warm: with tracing off, the per-event emit check is a branch,
// not an append, and every buffer the simulation needs is reset in
// place. This is the per-event half of the steady-state zero-alloc
// contract (the harness half lives in the repo-root hotpath tests).
func TestRunZeroAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	spec := allocSpec()
	d := dev(t, intelProfile(), Bugs{})
	rng := xrand.New(11)
	var events int64
	for i := 0; i < 4; i++ {
		run, err := d.RunCtx(context.Background(), spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		events = run.Stats.Instructions
	}
	if events < 64 {
		t.Fatalf("warm run retired only %d instructions; spec too small to trust", events)
	}
	state := *rng
	allocs := testing.AllocsPerRun(20, func() {
		*rng = state
		if _, err := d.RunCtx(context.Background(), spec, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Device.RunCtx: %v allocs/run over %d events, want 0", allocs, events)
	}
}

// TestDeviceReuseDeterministic runs the same seeded kernel on a fresh
// device and on a device warmed by unrelated work, byte-comparing
// registers, memory and counters: scratch reuse must be invisible to
// the simulation.
func TestDeviceReuseDeterministic(t *testing.T) {
	spec := allocSpec()
	fresh := dev(t, intelProfile(), Bugs{})
	run, err := fresh.RunCtx(context.Background(), spec, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotRun(run)

	warm := dev(t, intelProfile(), Bugs{})
	other := twoThreadSpec(2,
		Program{{Op: OpStore, Addr: 0, Imm: 1}, {Op: OpStore, Addr: 1, Imm: 1}},
		Program{{Op: OpLoad, Addr: 1, Reg: 0}, {Op: OpLoad, Addr: 0, Reg: 1}},
	)
	for i := 0; i < 3; i++ {
		if _, err := warm.RunCtx(context.Background(), other, xrand.New(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	run, err = warm.RunCtx(context.Background(), spec, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	got := snapshotRun(run)

	if got.Stats != want.Stats {
		t.Fatalf("warm device stats differ:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if got.SimSeconds != want.SimSeconds {
		t.Fatalf("warm device sim time %v, want %v", got.SimSeconds, want.SimSeconds)
	}
	for i := range want.Registers {
		for j := range want.Registers[i] {
			if got.Registers[i][j] != want.Registers[i][j] {
				t.Fatalf("warm device register t%d r%d = %d, want %d",
					i, j, got.Registers[i][j], want.Registers[i][j])
			}
		}
	}
	for a := range want.Memory {
		if got.Memory[a] != want.Memory[a] {
			t.Fatalf("warm device memory[%d] = %d, want %d", a, got.Memory[a], want.Memory[a])
		}
	}
}
