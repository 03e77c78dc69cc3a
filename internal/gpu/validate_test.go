package gpu

import (
	"context"
	"testing"

	"repro/internal/xrand"
)

// Instructions are validated while they are decoded into the step
// table, not in a pass of their own. These tests hold that fused check
// to LaunchSpec.Validate's contract: the same error text, no draw from
// the launch's rng (so a rejected launch cannot shift any later one,
// even on a device whose fault model draws per launch), and a device
// that stays usable however far the decode got.

// decodeSpec is a valid launch whose last thread has a program, so an
// error planted in its last instruction is the last one decode reaches.
func decodeSpec() LaunchSpec {
	spec := mixedSpec(4, 3)
	if len(spec.Programs[len(spec.Programs)-1]) == 0 {
		panic("decodeSpec: last thread has an empty program")
	}
	return spec
}

// withInstr returns a deep copy of spec with thread tid's instruction i
// replaced by in (i = -1 means the last one).
func withInstr(spec LaunchSpec, tid, i int, in Instr) LaunchSpec {
	progs := make([]Program, len(spec.Programs))
	for t, p := range spec.Programs {
		progs[t] = append(Program(nil), p...)
	}
	if i < 0 {
		i = len(progs[tid]) - 1
	}
	progs[tid][i] = in
	spec.Programs = progs
	return spec
}

// invalidSpecs plants a bad opcode or an out-of-range address in the
// last instruction of the last thread, and, in the last case, a second
// error earlier, which the error must name instead.
func invalidSpecs(spec LaunchSpec) map[string]LaunchSpec {
	last := len(spec.Programs) - 1
	mem := uint32(spec.MemWords)
	return map[string]LaunchSpec{
		"opcode-7":       withInstr(spec, last, -1, Instr{Op: 7, Addr: 1}),
		"opcode-255":     withInstr(spec, last, -1, Instr{Op: 255}),
		"load-past-end":  withInstr(spec, last, -1, Instr{Op: OpLoad, Addr: mem, Reg: 0}),
		"store-far-past": withInstr(spec, last, -1, Instr{Op: OpStressStore, Addr: mem + 1000, Imm: 1}),
		"first-error-wins": withInstr(withInstr(spec, last, -1, Instr{Op: 9}),
			2, 0, Instr{Op: OpExchange, Addr: mem, Imm: 3}),
	}
}

// launchPrint fingerprints one launch: the result or the error text,
// plus the rng's position after it.
func launchPrint(t *testing.T, d *Device, spec LaunchSpec, rng *xrand.Rand) string {
	t.Helper()
	var g goldenHasher
	res, err := d.RunCtx(context.Background(), spec, rng)
	if err != nil {
		g.str("err:" + err.Error())
		g.mix()
	} else {
		g.hashResult(res)
	}
	g.hashRNG(rng)
	return g.sum()
}

func TestInvalidSpecRejectedAtDecode(t *testing.T) {
	valid := decodeSpec()
	models := map[string]FaultModel{
		"no-faults": {},
		"faults":    UniformFaults(7, 0.25),
		"corrupt":   {Seed: 3, CorruptProb: 1},
	}
	for _, prof := range AllProfiles() {
		for mname, model := range models {
			for bname, bad := range invalidSpecs(valid) {
				want := bad.Validate()
				if want == nil {
					t.Fatalf("%s: Validate accepted the spec", bname)
				}
				d := dev(t, prof, Bugs{})
				if err := d.SetFaults(model); err != nil {
					t.Fatal(err)
				}
				rng := xrand.New(41)
				// Warm the executor, then fail a launch on it.
				_, _ = d.RunCtx(context.Background(), valid, rng)
				before := *rng
				if _, err := d.RunCtx(context.Background(), bad, rng); err == nil || err.Error() != want.Error() {
					t.Fatalf("%s/%s/%s: RunCtx = %v, want %q", prof.ShortName, mname, bname, err, want)
				}
				if _, _, err := d.RunTraced(bad, rng); err == nil || err.Error() != want.Error() {
					t.Fatalf("%s/%s/%s: RunTraced = %v, want %q", prof.ShortName, mname, bname, err, want)
				}
				if *rng != before {
					t.Fatalf("%s/%s/%s: a rejected launch drew from the rng", prof.ShortName, mname, bname)
				}
				// The next valid launch is the one a fresh device makes.
				state := *rng
				got := launchPrint(t, d, valid, rng)
				fresh := dev(t, prof, Bugs{})
				if err := fresh.SetFaults(model); err != nil {
					t.Fatal(err)
				}
				if wantPrint := launchPrint(t, fresh, valid, &state); got != wantPrint {
					t.Fatalf("%s/%s/%s: the launch after a rejected one differs from a fresh device's",
						prof.ShortName, mname, bname)
				}
			}
		}
	}
}

// TestInvalidSpecAfterAbortedRun: a run the watchdog aborts leaves
// completions in the timing wheel; a rejected launch of another shape
// must neither trip over them nor hide them from the next reset.
func TestInvalidSpecAfterAbortedRun(t *testing.T) {
	valid := decodeSpec()
	other := wavesSpec(40, 8)
	bad := withInstr(other, len(other.Programs)-1, -1, Instr{Op: OpLoad, Addr: uint32(other.MemWords)})
	for _, bugs := range []Bugs{{}, {StaleCache: true}} {
		d := dev(t, amdProfile(), bugs)
		if err := d.SetFaults(FaultModel{WatchdogTicks: 5}); err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(5)
		if _, err := d.RunCtx(context.Background(), valid, rng); err == nil {
			t.Fatal("the watchdog did not abort the run")
		}
		if d.scratch.pendingEvents == 0 {
			t.Fatal("the aborted run left no pending completions; the case is vacuous")
		}
		if err := d.SetFaults(FaultModel{}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.RunCtx(context.Background(), bad, rng); err == nil || err.Error() != bad.Validate().Error() {
			t.Fatalf("RunCtx = %v, want %v", err, bad.Validate())
		}
		state := *rng
		got := launchPrint(t, d, valid, rng)
		if want := launchPrint(t, dev(t, amdProfile(), bugs), valid, &state); got != want {
			t.Fatalf("bugs %+v: the launch after an aborted and a rejected one differs from a fresh device's", bugs)
		}
	}
}
