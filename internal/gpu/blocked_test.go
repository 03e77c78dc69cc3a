package gpu

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/xrand"
)

// The blocked lane mask is pure scheduling scratch: a bit is set only
// while its lane waits on its own in-flight ops and cleared by the
// completion that ends the wait. These tests check the two ways that
// could leak into results — bits surviving a finished run, and bits
// left behind by an aborted one reaching the next launch.

// serialAMD is the AMD profile with one op in flight per thread, the
// setting in which nearly every lane visit blocks.
func serialAMD() Profile {
	p := amdProfile()
	p.MaxOutstanding = 1
	return p
}

func blockedWords(d *Device) int {
	n := 0
	for _, w := range d.scratch.blocked {
		if w != 0 {
			n++
		}
	}
	return n
}

// TestBlockedMaskDrainsOnSuccess: after every successful run of every
// golden spec, on every profile, no lane is left marked blocked.
func TestBlockedMaskDrainsOnSuccess(t *testing.T) {
	profiles := append(AllProfiles(), serialAMD())
	for _, sc := range goldenScenarios() {
		for _, p := range profiles {
			d, err := NewDevice(p, sc.bugs)
			if err != nil {
				t.Fatal(err)
			}
			if sc.faults.Enabled() {
				if err := d.SetFaults(sc.faults); err != nil {
					t.Fatal(err)
				}
			}
			rng := xrand.New(sc.seed)
			for i := 0; i < sc.runs; i++ {
				if _, err := d.Run(sc.spec, rng); err != nil {
					continue // injected faults; nothing ran to completion
				}
				if n := blockedWords(d); n != 0 {
					t.Fatalf("%s on %s/mo%d, run %d: %d blocked words after a finished run",
						sc.name, p.ShortName, p.MaxOutstanding, i, n)
				}
			}
		}
	}
}

// fingerprint hashes one run's result and the RNG position after it.
func fingerprint(t *testing.T, d *Device, spec LaunchSpec, seed uint64) string {
	t.Helper()
	rng := xrand.New(seed)
	res, err := d.Run(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	var g goldenHasher
	g.hashResult(res)
	g.hashRNG(rng)
	return g.sum()
}

// TestWarmRunAfterAbortMatchesCold: a launch killed by the watchdog or
// cancelled mid-run leaves blocked bits behind; the next launch on the
// same device must still equal one on a fresh device.
func TestWarmRunAfterAbortMatchesCold(t *testing.T) {
	spec := regroup(deepPipelineSpec(192), 64)
	cold := fingerprint(t, dev(t, serialAMD(), Bugs{}), spec, 77)

	t.Run("watchdog", func(t *testing.T) {
		d := dev(t, serialAMD(), Bugs{})
		if err := d.SetFaults(FaultModel{WatchdogTicks: 40}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(spec, xrand.New(5)); !errors.Is(err, ErrDeviceHang) {
			t.Fatalf("err = %v, want the watchdog's ErrDeviceHang", err)
		}
		if blockedWords(d) == 0 {
			t.Fatal("the aborted run left no blocked lanes; the test exercises nothing")
		}
		if err := d.SetFaults(FaultModel{}); err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(t, d, spec, 77); got != cold {
			t.Fatalf("warm run after a watchdog kill = %s, cold = %s", got, cold)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		// A kernel long enough that the cancel lands mid-run; where it
		// lands does not matter, only that the next launch is clean.
		long := make([]Program, 256)
		for tid := range long {
			p := make(Program, 0, 2048)
			for i := 0; i < 1024; i++ {
				p = append(p,
					Instr{Op: OpStore, Addr: uint32(tid % 64), Imm: uint32(i)},
					Instr{Op: OpFence})
			}
			long[tid] = p
		}
		longSpec := LaunchSpec{WorkgroupSize: 64, Workgroups: 4, MemWords: 64, Programs: long}
		d := dev(t, serialAMD(), Bugs{})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		time.AfterFunc(2*time.Millisecond, cancel)
		if _, err := d.RunCtx(ctx, longSpec, xrand.New(5)); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want a cancelled run", err)
		}
		if got := fingerprint(t, d, spec, 77); got != cold {
			t.Fatalf("warm run after a cancel = %s, cold = %s", got, cold)
		}
	})
}
