package gpu

import (
	"context"
	"errors"
	"testing"

	"repro/internal/xrand"
)

// faultSpec is a small two-thread message-passing kernel used across
// the fault tests.
func faultSpec() LaunchSpec {
	writer := Program{
		{Op: OpStore, Addr: 0, Imm: 1},
		{Op: OpStore, Addr: 1, Imm: 1},
	}
	reader := Program{
		{Op: OpLoad, Addr: 1, Reg: 0},
		{Op: OpLoad, Addr: 0, Reg: 1},
	}
	return twoThreadSpec(2, writer, reader)
}

// TestZeroFaultModelIdentity: installing the zero model changes nothing
// — results are bit-identical to a fault-free device and no extra
// randomness is consumed, the property that keeps every pre-existing
// dataset byte-identical.
func TestZeroFaultModelIdentity(t *testing.T) {
	spec := faultSpec()
	plain := dev(t, amdProfile(), Bugs{})
	faulted := dev(t, amdProfile(), Bugs{})
	if err := faulted.SetFaults(FaultModel{}); err != nil {
		t.Fatal(err)
	}
	rngA, rngB := xrand.New(7), xrand.New(7)
	for i := 0; i < 20; i++ {
		a, err := plain.RunCtx(context.Background(), spec, rngA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := faulted.RunCtx(context.Background(), spec, rngB)
		if err != nil {
			t.Fatal(err)
		}
		if a.Stats.Ticks != b.Stats.Ticks {
			t.Fatalf("run %d: ticks diverged: %d vs %d", i, a.Stats.Ticks, b.Stats.Ticks)
		}
		for ti := range a.Registers {
			for ri := range a.Registers[ti] {
				if a.Registers[ti][ri] != b.Registers[ti][ri] {
					t.Fatalf("run %d: registers diverged at t%d r%d", i, ti, ri)
				}
			}
		}
	}
	// The rng streams must be in the same state: the zero model drew
	// nothing extra.
	if rngA.Uint64() != rngB.Uint64() {
		t.Fatal("zero fault model consumed workload randomness")
	}
}

// TestLaunchFailInjection: a certain launch failure yields a typed,
// transient, injected ErrLaunchFailed.
func TestLaunchFailInjection(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	if err := d.SetFaults(FaultModel{Seed: 1, LaunchFailProb: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := d.RunCtx(context.Background(), faultSpec(), xrand.New(1))
	if !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("err = %v, want ErrLaunchFailed", err)
	}
	var de *DeviceError
	if !errors.As(err, &de) {
		t.Fatalf("err %T is not a *DeviceError", err)
	}
	if de.Kind != FaultLaunch || !de.Injected || !de.Transient() {
		t.Fatalf("unexpected DeviceError: %+v", de)
	}
	if de.Device != "AMD" {
		t.Fatalf("Device = %q, want AMD", de.Device)
	}
}

// TestHangInjection: a certain hang reports the watchdog deadline as
// its tick without simulating the dead time.
func TestHangInjection(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	if err := d.SetFaults(FaultModel{Seed: 1, HangProb: 1, WatchdogTicks: 1234}); err != nil {
		t.Fatal(err)
	}
	_, err := d.RunCtx(context.Background(), faultSpec(), xrand.New(1))
	if !errors.Is(err, ErrDeviceHang) {
		t.Fatalf("err = %v, want ErrDeviceHang", err)
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Tick != 1234 || !de.Injected || !de.Transient() {
		t.Fatalf("unexpected DeviceError: %+v", de)
	}
}

// TestCorruptionInjection: a certain corruption succeeds but poisons
// results with values at or above the garbage floor, so a domain-
// validating harness always detects them.
func TestCorruptionInjection(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	if err := d.SetFaults(FaultModel{Seed: 1, CorruptProb: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := d.RunCtx(context.Background(), faultSpec(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CorruptedValues == 0 {
		t.Fatal("CorruptProb=1 run reported no corrupted values")
	}
	found := 0
	for _, regs := range res.Registers {
		for _, v := range regs {
			if IsGarbage(v) {
				found++
			}
		}
	}
	for _, v := range res.Memory {
		if IsGarbage(v) {
			found++
		}
	}
	if int64(found) != res.Stats.CorruptedValues {
		t.Fatalf("found %d garbage values, stats say %d", found, res.Stats.CorruptedValues)
	}
}

// TestDeviceLossEscalation: after LossAfter injected faults the device
// permanently fails with the non-transient ErrDeviceLost; SetFaults
// resurrects it.
func TestDeviceLossEscalation(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	model := FaultModel{Seed: 1, LaunchFailProb: 1, LossAfter: 3}
	if err := d.SetFaults(model); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	for i := 0; i < 3; i++ {
		if _, err := d.RunCtx(context.Background(), faultSpec(), rng); !errors.Is(err, ErrLaunchFailed) {
			t.Fatalf("run %d: err = %v, want ErrLaunchFailed", i, err)
		}
	}
	_, err := d.RunCtx(context.Background(), faultSpec(), rng)
	if !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("err = %v, want ErrDeviceLost after %d faults", err, model.LossAfter)
	}
	var de *DeviceError
	if !errors.As(err, &de) || de.Transient() {
		t.Fatalf("device loss must be permanent: %+v", de)
	}
	// Reinstalling the model resets the escalation counter.
	if err := d.SetFaults(model); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunCtx(context.Background(), faultSpec(), rng); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("after reset: err = %v, want ErrLaunchFailed", err)
	}
}

// TestWatchdogKillsLongKernel: a kernel genuinely exceeding the
// watchdog deadline dies with an organic (non-injected) hang instead of
// spinning toward the internal simulation bound.
func TestWatchdogKillsLongKernel(t *testing.T) {
	var long Program
	for i := 0; i < 200; i++ {
		long = append(long, Instr{Op: OpStressLoad, Addr: 0})
	}
	d := dev(t, amdProfile(), Bugs{})
	// Watchdog only: the model is not Enabled() and draws no randomness.
	if err := d.SetFaults(FaultModel{WatchdogTicks: 10}); err != nil {
		t.Fatal(err)
	}
	_, err := d.RunCtx(context.Background(), twoThreadSpec(1, long, long), xrand.New(1))
	if !errors.Is(err, ErrDeviceHang) {
		t.Fatalf("err = %v, want ErrDeviceHang from the watchdog", err)
	}
	var de *DeviceError
	if !errors.As(err, &de) {
		t.Fatalf("err %T is not a *DeviceError", err)
	}
	if de.Injected {
		t.Fatal("organic watchdog kill marked as injected")
	}
	if de.Tick <= 10 {
		t.Fatalf("hang tick %d not past the deadline", de.Tick)
	}
	// A generous deadline lets the same kernel finish.
	if err := d.SetFaults(FaultModel{WatchdogTicks: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunCtx(context.Background(), twoThreadSpec(1, long, long), xrand.New(1)); err != nil {
		t.Fatalf("kernel under generous watchdog failed: %v", err)
	}
}

// TestFaultDeterminism: two devices with the same model and the same
// workload rng produce the same fault sequence — faults are a pure
// function of (model, device, launch randomness).
func TestFaultDeterminism(t *testing.T) {
	model := UniformFaults(42, 0.3)
	kinds := func() []string {
		d := dev(t, amdProfile(), Bugs{})
		if err := d.SetFaults(model); err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(99)
		var out []string
		for i := 0; i < 40; i++ {
			_, err := d.RunCtx(context.Background(), faultSpec(), rng)
			switch {
			case err == nil:
				out = append(out, "ok")
			default:
				var de *DeviceError
				if !errors.As(err, &de) {
					t.Fatalf("run %d: unexpected error type %T", i, err)
				}
				out = append(out, de.Kind.String())
			}
		}
		return out
	}
	a, b := kinds(), kinds()
	injected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverged at run %d: %s vs %s", i, a[i], b[i])
		}
		if a[i] != "ok" {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("30% fault rate injected nothing in 40 runs")
	}
}

// TestFaultModelValidate: out-of-range parameters are rejected at
// installation time.
func TestFaultModelValidate(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	bad := []FaultModel{
		{LaunchFailProb: -0.1},
		{HangProb: 1.5},
		{CorruptProb: 2},
		{LossAfter: -1},
		{WatchdogTicks: -5},
	}
	for i, m := range bad {
		if err := d.SetFaults(m); err == nil {
			t.Errorf("case %d: SetFaults accepted %+v", i, m)
		}
	}
	if got := d.Faults(); got != (FaultModel{}) {
		t.Fatalf("rejected models must not stick: %+v", got)
	}
}

// TestGarbageFloor: every generated garbage value stays at or above the
// detectability floor, and small litmus values never trip IsGarbage.
func TestGarbageFloor(t *testing.T) {
	frng := xrand.New(5)
	for i := 0; i < 1000; i++ {
		if v := garbage(frng); !IsGarbage(v) {
			t.Fatalf("garbage() produced in-domain value %#x", v)
		}
	}
	for _, v := range []uint32{0, 1, 2, 255, 65535, garbageBase - 1} {
		if IsGarbage(v) {
			t.Fatalf("IsGarbage(%#x) = true for a legitimate value", v)
		}
	}
}

// TestFaultKindStrings covers the taxonomy's names.
func TestFaultKindStrings(t *testing.T) {
	want := map[FaultKind]string{
		FaultLaunch:  "launch-failed",
		FaultHang:    "hang",
		FaultCorrupt: "result-corrupt",
		FaultLost:    "device-lost",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
