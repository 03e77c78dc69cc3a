package tuning

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/mutation"
	"repro/internal/stats"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// BugCase is one row of the Table 4 correlation study: a real MCS bug
// (injected into a device or its driver) together with the conformance
// test that reveals it and a mutant whose kill rate should track the
// bug's observation rate.
type BugCase struct {
	// Name labels the case, e.g. "Intel/CoRR".
	Name string
	// Device is the profile short name.
	Device string
	// Bugs is the device-level defect to inject (CoRR, MP-CO cases).
	Bugs gpu.Bugs
	// Driver selects the toolchain build; DriverFenceDropping models
	// the AMD compiler bug (MP-relacq case).
	Driver wgsl.DriverVersion
	// Conformance is the conformance test that fails under the bug.
	Conformance string
	// Mutant is the corresponding mutant.
	Mutant string
	// MutatorName records the generating mutator, for the table.
	MutatorName string
}

// PaperBugCases returns the three cases of Table 4: the Intel CoRR
// bug (reversing po-loc), the AMD MP-relacq compiler bug (weakening
// sw), and the NVIDIA Kepler MP-CO coherence bug (weakening po-loc).
func PaperBugCases() []BugCase {
	return []BugCase{
		{
			Name:   "Intel/CoRR",
			Device: "Intel",
			Bugs: gpu.Bugs{
				CoherenceRR: true, CoherenceRRProb: 1.0, CoherenceRRPressure: 2,
			},
			Conformance: "CoRR",
			Mutant:      "CoRR-mutant",
			MutatorName: "reversing po-loc",
		},
		{
			Name:        "AMD/MP-relacq",
			Device:      "AMD",
			Driver:      wgsl.DriverFenceDropping,
			Conformance: "MP-relacq",
			Mutant:      "MP-relacq-nofence",
			MutatorName: "weakening sw",
		},
		{
			Name:        "NVIDIA/MP-CO",
			Device:      "Kepler",
			Bugs:        gpu.Bugs{StaleCache: true},
			Conformance: "MP-CO",
			Mutant:      "MP",
			MutatorName: "weakening po-loc",
		},
	}
}

// CorrelationResult is one computed Table 4 row.
type CorrelationResult struct {
	Case BugCase
	// Environments is how many random environments were sampled.
	Environments int
	// PCC is the Pearson correlation between the mutant death rate and
	// the conformance test's bug observation rate across environments.
	PCC float64
	// PValue is the two-sided significance of the PCC.
	PValue float64
	// BugObservedIn counts environments where the bug appeared.
	BugObservedIn int
	// MutantKilledIn counts environments where the mutant died.
	MutantKilledIn int
}

// CorrelationConfig sizes the study.
type CorrelationConfig struct {
	// Environments is the number of random parallel environments
	// (the paper uses 150).
	Environments int
	// Iterations is kernel launches per environment (the paper uses
	// 100).
	Iterations int
	// Scale bounds environment generation.
	Scale harness.Scale
	// Seed drives all randomness.
	Seed uint64
}

// PaperCorrelationConfig mirrors Sec. 5.4: 150 random parallel
// environments at 100 iterations each.
func PaperCorrelationConfig() CorrelationConfig {
	return CorrelationConfig{
		Environments: 150,
		Iterations:   100,
		Scale:        harness.PaperScale(),
		Seed:         2023,
	}
}

// SmallCorrelationConfig is scaled for simulation-backed tests.
func SmallCorrelationConfig() CorrelationConfig {
	return CorrelationConfig{
		Environments: 24,
		Iterations:   4,
		Scale:        harness.DefaultScale(),
		Seed:         2023,
	}
}

// Correlate runs one bug case: the conformance test executes on the
// buggy device and the mutant on the corresponding conformant device,
// in the same sequence of random parallel environments, and the two
// per-environment rates are correlated.
func Correlate(c BugCase, suite *mutation.Suite, cfg CorrelationConfig) (*CorrelationResult, error) {
	confTest, ok := suite.ByName(c.Conformance)
	if !ok {
		return nil, fmt.Errorf("tuning: unknown conformance test %q", c.Conformance)
	}
	mutant, ok := suite.ByName(c.Mutant)
	if !ok {
		return nil, fmt.Errorf("tuning: unknown mutant %q", c.Mutant)
	}
	prof, ok := gpu.ProfileByName(c.Device)
	if !ok {
		return nil, fmt.Errorf("tuning: unknown device %q", c.Device)
	}
	// Both the conformance test and the mutant run on the same buggy
	// device through the same driver, as in the paper: the physical
	// device under study has the bug, and the correlation being tested
	// is precisely that the mutant's death rate tracks the bug's
	// observation rate on that hardware.
	buggy, err := gpu.NewDevice(prof, c.Bugs)
	if err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed)
	envRng := root.Split()
	res := &CorrelationResult{Case: c, Environments: cfg.Environments}
	bugRates := make([]float64, 0, cfg.Environments)
	mutantRates := make([]float64, 0, cfg.Environments)
	for e := 0; e < cfg.Environments; e++ {
		env := harness.Random(envRng, true, cfg.Scale)
		// The conformance test runs through the (possibly defective)
		// toolchain on the buggy device.
		confRunner, err := harness.NewRunner(buggy, env)
		if err != nil {
			return nil, err
		}
		confRunner.Lower = wgsl.NewToolchain(prof, c.Driver).LowerFunc()
		confRes, err := confRunner.RunCtx(context.TODO(), confTest, cfg.Iterations, root.Split())
		if err != nil {
			return nil, err
		}
		mutRunner, err := harness.NewRunner(buggy, env)
		if err != nil {
			return nil, err
		}
		mutRunner.Lower = wgsl.NewToolchain(prof, c.Driver).LowerFunc()
		mutRes, err := mutRunner.RunCtx(context.TODO(), mutant, cfg.Iterations, root.Split())
		if err != nil {
			return nil, err
		}
		bugRates = append(bugRates, confRes.ViolationRate())
		mutantRates = append(mutantRates, mutRes.TargetRate())
		if confRes.Violations > 0 {
			res.BugObservedIn++
		}
		if mutRes.TargetCount > 0 {
			res.MutantKilledIn++
		}
	}
	pcc, err := stats.Pearson(mutantRates, bugRates)
	if err != nil {
		return nil, fmt.Errorf("tuning: %s: %w", c.Name, err)
	}
	res.PCC = pcc
	if p, err := stats.PearsonPValue(pcc, len(bugRates)); err == nil {
		res.PValue = p
	}
	return res, nil
}
