package gpu

import (
	"context"

	"repro/internal/xrand"
)

// Device is a simulated GPU: a profile plus a (possibly empty) set of
// injected defects and an optional fault model. The device owns a
// reusable executor scratch, so sequential runs on one device allocate
// (almost) nothing after the first; the flip side is that a Device must
// never be used from multiple goroutines at once, and the RunResult a
// run returns aliases that scratch — it is valid only until the next
// RunCtx/RunTraced call on the same device (copy out anything that must
// outlive it). A device with a loss-escalating fault model also
// accumulates an injected-fault count across runs (the path to
// ErrDeviceLost).
type Device struct {
	prof   Profile
	bugs   Bugs
	faults FaultModel
	// faultCount tallies injected faults across this device's runs,
	// driving FaultModel.LossAfter escalation.
	faultCount int
	// scratch is the reusable executor, created on first Run and reset
	// in place for every subsequent launch.
	scratch *exec
}

// NewDevice builds a device from a profile and defect set.
func NewDevice(p Profile, bugs Bugs) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Device{prof: p, bugs: bugs}, nil
}

// MustDevice is NewDevice panicking on error, for the fixed profiles.
func MustDevice(p Profile, bugs Bugs) *Device {
	d, err := NewDevice(p, bugs)
	if err != nil {
		panic(err)
	}
	return d
}

// Profile returns the device's profile.
func (d *Device) Profile() Profile { return d.prof }

// SetFaults installs a fault model (see FaultModel). The zero model
// restores fault-free operation and consumes no launch randomness.
func (d *Device) SetFaults(f FaultModel) error {
	if err := f.Validate(); err != nil {
		return err
	}
	d.faults = f
	d.faultCount = 0
	return nil
}

// Faults returns the device's fault model.
func (d *Device) Faults() FaultModel { return d.faults }

// maxSimTicks bounds one kernel's simulated duration; exceeding it
// indicates a scheduling bug, not a slow kernel.
const maxSimTicks = int64(1) << 34

// watchdogDeadline is the tick past which a still-running kernel is
// declared hung.
func (d *Device) watchdogDeadline() int64 {
	if d.faults.WatchdogTicks > 0 {
		return d.faults.WatchdogTicks
	}
	return maxSimTicks
}

// RunCtx executes one kernel dispatch to completion. Identical (spec,
// rng-state) pairs produce identical results.
//
// The returned RunResult aliases the device's executor scratch and is
// valid only until the next RunCtx/RunTraced on this device.
//
// When a fault model is installed, one extra draw of rng seeds the
// launch's private fault stream; the launch may then fail with a typed
// *DeviceError (ErrLaunchFailed, ErrDeviceHang, ErrDeviceLost) or —
// worse — succeed with silently corrupted results, which callers
// detect by validating outcomes against their expected value domain.
//
// Cancellation is cooperative: the executor polls ctx.Done() on a
// coarse step budget (every cancelCheckSteps scheduler steps, plus once
// on entry), so a pathological kernel stops well below the watchdog
// deadline while the allocation-free hot path pays only a decrement and
// branch per step. A cancelled launch fails with an error wrapping
// ctx.Err() and leaves the executor scratch reusable — the next run
// resets it as usual.
func (d *Device) RunCtx(ctx context.Context, spec LaunchSpec, rng *xrand.Rand) (*RunResult, error) {
	// Decoding validates every instruction and draws nothing, so an
	// invalid spec fails here, before the fault model's draw.
	e, err := d.getExec(spec, rng)
	if err != nil {
		return nil, err
	}
	var frng *xrand.Rand
	corrupt := false
	if d.faults.Enabled() {
		frng = xrand.NewFromPath(rng.Uint64()^d.faults.Seed, d.prof.ShortName)
		if d.faults.LossAfter > 0 && d.faultCount >= d.faults.LossAfter {
			return nil, &DeviceError{Kind: FaultLost, Device: d.prof.ShortName, Injected: true}
		}
		if frng.Bool(d.faults.LaunchFailProb) {
			d.faultCount++
			return nil, &DeviceError{Kind: FaultLaunch, Device: d.prof.ShortName, Injected: true}
		}
		if frng.Bool(d.faults.HangProb) {
			// The kernel would never finish; the watchdog reclaims the
			// device at its deadline without simulating the dead time.
			d.faultCount++
			return nil, &DeviceError{Kind: FaultHang, Device: d.prof.ShortName,
				Tick: d.watchdogDeadline(), Injected: true}
		}
		corrupt = frng.Bool(d.faults.CorruptProb)
	}
	e.ctx = ctx
	err = e.run()
	e.ctx = nil
	if err != nil {
		return nil, err
	}
	res := e.result()
	if corrupt {
		d.faultCount++
		corruptResult(res, frng)
	}
	return res, nil
}
