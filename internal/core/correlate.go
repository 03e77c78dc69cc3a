package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/wgsl"
	"repro/internal/xrand"
)

// BugCase is one row of the Table 4 correlation study: a real MCS bug
// together with the conformance test that reveals it and a mutant
// whose death rate should track the bug's observation rate.
type BugCase struct {
	// Name labels the case, e.g. "Intel/CoRR".
	Name string `json:"name"`
	// Platform is the buggy platform: the bug is injected into its
	// device or its driver. Both tests run on it, as in the paper.
	Platform Platform `json:"platform"`
	// Conformance and Mutant name the conformance test that fails under
	// the bug and the corresponding mutant.
	Conformance string `json:"conformance"`
	Mutant      string `json:"mutant"`
	// MutatorName records the generating mutator, for the table.
	MutatorName string `json:"mutator"`
}

// PaperBugCases returns the three cases of Table 4: the Intel CoRR bug
// (reversing po-loc), the AMD MP-relacq compiler bug (weakening sw),
// and the NVIDIA Kepler MP-CO coherence bug (weakening po-loc).
func PaperBugCases() []BugCase {
	return []BugCase{
		{
			Name: "Intel/CoRR",
			Platform: Platform{Device: "Intel", Bugs: gpu.Bugs{
				CoherenceRR: true, CoherenceRRProb: 1.0, CoherenceRRPressure: 2,
			}},
			Conformance: "CoRR", Mutant: "CoRR-mutant", MutatorName: "reversing po-loc",
		},
		{
			Name:        "AMD/MP-relacq",
			Platform:    Platform{Device: "AMD", Driver: wgsl.DriverFenceDropping},
			Conformance: "MP-relacq", Mutant: "MP-relacq-nofence", MutatorName: "weakening sw",
		},
		{
			Name:        "NVIDIA/MP-CO",
			Platform:    Platform{Device: "Kepler", Bugs: gpu.Bugs{StaleCache: true}},
			Conformance: "MP-CO", Mutant: "MP", MutatorName: "weakening po-loc",
		},
	}
}

// CorrelationRow is one computed Table 4 row.
type CorrelationRow struct {
	Case BugCase `json:"case"`
	// Environments counts the random environments whose conformance and
	// mutant cells both produced data; the rest of the row is over them.
	Environments int `json:"environments"`
	// PCC is the Pearson correlation between the mutant death rate and
	// the bug observation rate across environments, PValue its
	// two-sided significance. An undefined correlation (under three
	// environments, or a constant rate) reads PCC 0, PValue 1.
	PCC    float64 `json:"pcc"`
	PValue float64 `json:"p_value"`
	// BugObservedIn and MutantKilledIn count environments where the bug
	// appeared and where the mutant died.
	BugObservedIn  int `json:"bug_observed_in"`
	MutantKilledIn int `json:"mutant_killed_in"`
	// Failures lists the case's cells that produced no data and Pending
	// counts those an interruption left unrun; either drops its
	// environment from the row.
	Failures []CellFailure `json:"failures,omitempty"`
	Pending  int           `json:"pending,omitempty"`
}

// correlateCampaign expands (cases × environments × roles) into the
// scheduler spec and per-key work map of a correlation campaign. Cells
// are keyed <case>/env-NNN/<role>, role conformance then mutant,
// case-major then env-major. The environments are drawn once from the
// seed, so every case runs the same sequence. An unknown device or
// test fails here, before anything runs.
func (st *Study) correlateCampaign(cases []BugCase, envs int, seed uint64) (sched.Spec, map[string]evalCell, error) {
	rng := xrand.NewFromPath(seed, "correlate-envs")
	params := make([]harness.Params, envs)
	for e := range params {
		params[e] = harness.Random(rng, true, harness.DefaultScale())
	}
	spec := sched.Spec{Name: "correlate", Seed: seed}
	work := map[string]evalCell{}
	for _, c := range cases {
		if _, ok := gpu.ProfileByName(c.Platform.Device); !ok {
			return sched.Spec{}, nil, fmt.Errorf("core: %s: unknown device %q", c.Name, c.Platform.Device)
		}
		conf, ok := st.Suite.ByName(c.Conformance)
		mutant, ok2 := st.Suite.ByName(c.Mutant)
		if !ok || !ok2 {
			return sched.Spec{}, nil, fmt.Errorf("core: %s: unknown test %q or %q", c.Name, c.Conformance, c.Mutant)
		}
		for e, env := range params {
			r := evalRunner{platform: c.Platform, env: env}
			key := fmt.Sprintf("%s/env-%03d/", c.Name, e)
			spec.Cells = append(spec.Cells,
				sched.Cell{Key: key + "conformance", Device: c.Platform.Device},
				sched.Cell{Key: key + "mutant", Device: c.Platform.Device})
			work[key+"conformance"] = evalCell{runner: r, test: conf}
			work[key+"mutant"] = evalCell{runner: r, test: mutant}
		}
	}
	return spec, work, nil
}

// expandCorrelate turns a correlate spec into one campaign over the
// paper's bug cases, each platform under the spec's fault model.
func (st *Study) expandCorrelate(ws WorkSpec) (*workCampaign, error) {
	cases := PaperBugCases()
	if ws.Faults != nil {
		for i := range cases {
			cases[i].Platform.Faults = *ws.Faults
		}
	}
	spec, work, err := st.correlateCampaign(cases, ws.TuneEnvs, ws.Seed)
	if err != nil {
		return nil, err
	}
	newExec := st.evaluateExec(work, ws.Iters)
	return &workCampaign{
		ws:     ws,
		spec:   spec,
		salt:   ws.CacheSalt,
		ranges: schedRanges(spec, newExec),
		run: func(ctx context.Context, o CampaignOptions, desc json.RawMessage, salt string, res *WorkResult) (int, error) {
			rep, err := dist.RunCampaign(ctx, spec, newExec, o, func(r *harness.Result) int { return r.Instances }, desc, salt)
			interrupted := errors.Is(err, sched.ErrInterrupted)
			if err != nil && !interrupted {
				return 0, err
			}
			res.Artifact = &CampaignArtifact{Kind: ws.Kind, Correlation: correlationRows(cases, rep.Results)}
			res.StorageErr = rep.StorageErr
			if interrupted {
				return rep.Interrupted, fmt.Errorf("core: correlation interrupted: %w", sched.ErrInterrupted)
			}
			return 0, nil
		},
	}, nil
}

// correlationRows computes one row per case from a correlation
// campaign's results, in spec order.
func correlationRows(cases []BugCase, results []sched.CellResult[*harness.Result]) []CorrelationRow {
	per := len(results) / len(cases)
	rows := make([]CorrelationRow, len(cases))
	for ci, c := range cases {
		cells := results[ci*per : (ci+1)*per]
		row := CorrelationRow{Case: c, Failures: cellFailures(cells)}
		for _, r := range cells {
			if r.Interrupted {
				row.Pending++
			}
		}
		var bugRates, mutantRates []float64
		for e := 0; e < per; e += 2 {
			conf, mut := cells[e], cells[e+1]
			if conf.Err != nil || mut.Err != nil {
				continue
			}
			row.Environments++
			bugRates = append(bugRates, conf.Value.ViolationRate())
			mutantRates = append(mutantRates, mut.Value.TargetRate())
			if conf.Value.Violations > 0 {
				row.BugObservedIn++
			}
			if mut.Value.TargetCount > 0 {
				row.MutantKilledIn++
			}
		}
		row.PValue = 1
		if pcc, err := stats.Pearson(mutantRates, bugRates); err == nil {
			row.PCC = pcc
			row.PValue, _ = stats.PearsonPValue(pcc, len(bugRates))
		}
		rows[ci] = row
	}
	return rows
}
