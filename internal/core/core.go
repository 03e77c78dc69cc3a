// Package core is the high-level MC Mutants API: it ties the generated
// test suite, the simulated device fleet, the testing environments and
// the confidence machinery together into the workflows the paper
// demonstrates —
//
//   - evaluating a testing environment by mutation score and mutant
//     death rate (Sec. 3),
//   - checking a platform's conformance and explaining any violation
//     as a happens-before cycle (Sec. 5.4's bug discoveries),
//   - correlating each real bug's observation rate with its mutant's
//     death rate across random environments (Table 4),
//   - curating a conformance test suite with per-test environments and
//     a reproducibility-backed time budget (Sec. 4.2, 5.3).
//
// Commands and examples build on this package rather than wiring the
// internal pieces directly.
package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/confidence"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/sched"
	"repro/internal/tuning"
	"repro/internal/wgsl"
)

// Study bundles the generated suite with the device fleet.
type Study struct {
	// Suite is the generated 20-conformance/32-mutant test suite.
	Suite *mutation.Suite
}

// NewStudy generates the test suite.
func NewStudy() (*Study, error) {
	s, err := mutation.Generate()
	if err != nil {
		return nil, err
	}
	return &Study{Suite: s}, nil
}

// Platform describes a device under test: a profile, injected device
// defects, and the driver build of its shading toolchain.
type Platform struct {
	// Device is the profile short name ("NVIDIA", "AMD", "Intel",
	// "M1", "Kepler").
	Device string
	// Bugs injects device-level defects.
	Bugs gpu.Bugs
	// Driver selects the toolchain build.
	Driver wgsl.DriverVersion
	// Faults injects deterministic device-stack faults (lost launches,
	// hangs, result corruption, device loss) and configures the
	// executor watchdog. The zero value injects nothing and leaves every
	// run bit-identical to a fault-free platform.
	Faults gpu.FaultModel
}

// Runner builds a harness runner for the platform and environment. It
// installs no fault model: harness.WarmRunner.Get installs p.Faults on
// every cell attempt.
func (p Platform) Runner(env harness.Params) (*harness.Runner, error) {
	prof, ok := gpu.ProfileByName(p.Device)
	if !ok {
		return nil, fmt.Errorf("core: unknown device %q", p.Device)
	}
	dev, err := gpu.NewDevice(prof, p.Bugs)
	if err != nil {
		return nil, err
	}
	r, err := harness.NewRunner(dev, env)
	if err != nil {
		return nil, err
	}
	r.Lower = wgsl.NewToolchain(prof, p.Driver).LowerFunc()
	return r, nil
}

// EnvScore is a testing environment's evaluation on one platform.
type EnvScore struct {
	// Killed and Total give the mutation score over the suite's
	// mutants.
	Killed, Total int
	// AvgDeathRate is the mean kill rate over killed-or-not mutants
	// (kills per simulated second).
	AvgDeathRate float64
	// PerMutant holds the individual results in suite order. Entries
	// whose every cell failed carry zero counts (never nil).
	PerMutant []*harness.Result
	// Failures records campaign cells that produced no usable data —
	// permanent device failures and quarantined cells. Empty on a
	// healthy fleet; never silently dropped on a faulty one.
	Failures []CellFailure
	// Health summarizes per-device fleet health when the campaign ran
	// with a circuit breaker.
	Health []sched.DeviceHealth
	// Interrupted is true when the campaign was cancelled before every
	// cell ran: the score covers only the completed cells, and a resumed
	// run (same seed, same checkpoint) will finish the rest.
	Interrupted bool
	// StorageDegraded is true when the campaign's checkpoint hit a
	// persistent storage failure (ENOSPC, EIO) and finished in-memory:
	// the score is complete and correct, but cells completed after the
	// failure are not durably checkpointed. StorageErr carries the
	// cause.
	StorageDegraded bool
	StorageErr      string
}

// Score returns the mutation score in [0, 1].
func (s *EnvScore) Score() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Killed) / float64(s.Total)
}

// Finding is one conformance test's result on a platform.
type Finding struct {
	// Test is the conformance test name.
	Test string
	// Mutator is the generating mutator family.
	Mutator string
	// Instances and Violations count executed instances and disallowed
	// outcomes.
	Instances  int
	Violations int
	// ViolationRate is violations per simulated second.
	ViolationRate float64
	// Outcome is a violating outcome's postcondition form, empty when
	// conformant.
	Outcome string
	// Explanation is the happens-before cycle that makes the outcome
	// illegal, in the paper's notation.
	Explanation string
	// Error is set when the test's cell failed permanently — a device
	// fault or a quarantine — and the finding carries no outcome data.
	Error string
	// Quarantined marks cells skipped by the device circuit breaker.
	Quarantined bool
	// Interrupted marks cells abandoned by campaign cancellation: the
	// test is pending, not failed, and runs again on resume.
	Interrupted bool
}

// ConformanceReport is the result of running the conformance suite.
type ConformanceReport struct {
	Platform Platform
	Findings []Finding
	// Health summarizes the platform device's campaign health when the
	// fleet ran with a circuit breaker.
	Health []sched.DeviceHealth
	// Interrupted is true when the campaign was cancelled before the
	// platform's every test ran; interrupted findings are pending, not
	// failed.
	Interrupted bool
	// StorageDegraded is true when the campaign's checkpoint degraded
	// to in-memory on a persistent storage failure (ENOSPC, EIO); the
	// findings are complete but not durably checkpointed. StorageErr
	// carries the cause.
	StorageDegraded bool
	StorageErr      string
}

// Failed returns the findings whose cells produced no data (device
// failures and quarantined cells). Interrupted findings are pending,
// not failed, and are excluded.
func (r *ConformanceReport) Failed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Error != "" && !f.Interrupted {
			out = append(out, f)
		}
	}
	return out
}

// Buggy returns the findings with violations.
func (r *ConformanceReport) Buggy() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Violations > 0 {
			out = append(out, f)
		}
	}
	return out
}

// explainViolation renders the hb cycle of a disallowed outcome, or a
// consistency note when the outcome is memory corruption.
func explainViolation(test *litmus.Test, o litmus.Outcome) string {
	v, err := test.Classify(o)
	if err != nil {
		return fmt.Sprintf("unclassifiable: %v", err)
	}
	if v.Allowed {
		return "" // not actually a violation; defensive
	}
	if !v.Consistent {
		return "value inconsistency: a read or final value traces to no write"
	}
	x, err := test.Execution(o)
	if err != nil || len(v.Cycle) == 0 {
		return "disallowed under " + test.Model.String()
	}
	return x.ExplainCycle(v.Cycle)
}

// CTSEntry is one curated test of a conformance test suite plan.
type CTSEntry struct {
	// Test is the mutant whose reproducibility backs the conformance
	// test's inclusion.
	Test string
	// Env is the chosen environment key from the tuning dataset.
	Env string
	// DevicesMeeting and TotalDevices report Algorithm 1's coverage.
	DevicesMeeting, TotalDevices int
	// MinPositiveRate is the tie-breaking minimum nonzero rate.
	MinPositiveRate float64
	// Reproducible is true when the ceiling rate was met on every
	// device.
	Reproducible bool
}

// CTSPlan is a curated suite: one environment per test plus the
// aggregate confidence numbers of Sec. 4.2.
type CTSPlan struct {
	Family string
	Target float64
	Budget float64
	// Entries lists per-test choices.
	Entries []CTSEntry
	// MutationScore is the fraction of mutants reproducible everywhere
	// at this target and budget.
	MutationScore float64
	// TotalReproducibility is the chance one CTS run reproduces every
	// reproducible mutant: target^k for k reproducible entries.
	TotalReproducibility float64
	// TotalBudgetSeconds is budget times the number of entries.
	TotalBudgetSeconds float64
}

// CurateCTS applies Algorithm 1 over a tuning dataset's family to pick
// one environment per mutant and assemble the plan.
func CurateCTS(ds *tuning.Dataset, family string, target, budget float64) (*CTSPlan, error) {
	tables := ds.RateTables(family)
	if len(tables) == 0 {
		return nil, fmt.Errorf("core: dataset has no %q mutant records", family)
	}
	devices := ds.Devices()
	plan := &CTSPlan{Family: family, Target: target, Budget: budget}
	reproducible := 0
	for _, tr := range tables {
		m, err := confidence.MergeEnvironments(tr.Rates, devices, target, budget)
		if err != nil {
			return nil, err
		}
		e := CTSEntry{
			Test:           tr.Test,
			Env:            m.Env,
			DevicesMeeting: m.DevicesMeeting,
			TotalDevices:   m.TotalDevices,
			Reproducible:   m.ReproducibleEverywhere(),
		}
		if !math.IsInf(m.MinPositiveRate, 1) {
			e.MinPositiveRate = m.MinPositiveRate
		}
		if e.Reproducible {
			reproducible++
		}
		plan.Entries = append(plan.Entries, e)
	}
	sort.Slice(plan.Entries, func(i, j int) bool { return plan.Entries[i].Test < plan.Entries[j].Test })
	plan.MutationScore = float64(reproducible) / float64(len(plan.Entries))
	plan.TotalReproducibility = confidence.TotalScore(target, reproducible)
	plan.TotalBudgetSeconds = budget * float64(len(plan.Entries))
	return plan, nil
}
