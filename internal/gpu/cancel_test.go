package gpu

import (
	"context"
	"errors"
	"testing"

	"repro/internal/xrand"
)

// TestRunCtxPreCancelled: a context dead on arrival aborts the kernel
// on its first scheduler step, surfacing the context error.
func TestRunCtxPreCancelled(t *testing.T) {
	d := dev(t, intelProfile(), Bugs{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := twoThreadSpec(1, Program{{Op: OpStore, Addr: 0, Imm: 1}})
	_, err := d.RunCtx(ctx, spec, xrand.New(7))
	if err == nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
}

// TestDeviceReusableAfterCancel: a cancelled kernel must not poison the
// device — the next Run under a live context is bit-identical to a run
// on a device that was never cancelled.
func TestDeviceReusableAfterCancel(t *testing.T) {
	spec := twoThreadSpec(2,
		Program{{Op: OpStore, Addr: 0, Imm: 1}, {Op: OpLoad, Addr: 1, Reg: 0}},
		Program{{Op: OpStore, Addr: 1, Imm: 1}, {Op: OpLoad, Addr: 0, Reg: 0}},
	)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := dev(t, intelProfile(), Bugs{})
	if _, err := d.RunCtx(ctx, spec, xrand.New(3)); err == nil {
		t.Fatal("cancelled run returned a result")
	}
	got, err := d.RunCtx(context.Background(), spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	fresh := dev(t, intelProfile(), Bugs{})
	want, err := fresh.RunCtx(context.Background(), spec, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if got.SimSeconds != want.SimSeconds || got.Stats.Ticks != want.Stats.Ticks {
		t.Fatalf("cancelled device diverged: %+v vs %+v", got.Stats, want.Stats)
	}
	for i := range want.Memory {
		if got.Memory[i] != want.Memory[i] {
			t.Fatalf("memory[%d] = %d, want %d", i, got.Memory[i], want.Memory[i])
		}
	}
}

// TestRunIsRunCtxBackground: the legacy entry point is unbounded —
// never cancelled — and stays bit-identical to an explicit Background
// call.
func TestRunIsRunCtxBackground(t *testing.T) {
	spec := twoThreadSpec(1, Program{{Op: OpStore, Addr: 0, Imm: 1}})
	a, err := dev(t, intelProfile(), Bugs{}).RunCtx(context.Background(), spec, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev(t, intelProfile(), Bugs{}).RunCtx(context.Background(), spec, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.SimSeconds != b.SimSeconds || a.Stats.Ticks != b.Stats.Ticks {
		t.Fatalf("Run and RunCtx(Background) diverge: %+v vs %+v", a.Stats, b.Stats)
	}
}
