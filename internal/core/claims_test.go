package core

import (
	"context"
	"fmt"
	"testing"
)

// claimSeeds are the seeds every claim must hold at. They were fixed
// before the first run and are never re-picked: a claim that fails at
// one of them is a finding, not a reason to choose other seeds.
var claimSeeds = []uint64{1, 2, 3, 4, 5}

// TestClaimPTEKillsMoreThanSITE checks the paper's central claim at a
// small budget: parallel testing environments expose weak behaviors
// that single-instance testing misses, so at two kernel launches per
// cell the tuned PTE preset kills more mutants than the tuned SITE
// preset on every Table 3 device, at every claim seed.
func TestClaimPTEKillsMoreThanSITE(t *testing.T) {
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	killed := func(env string, seed uint64) map[string]int {
		t.Helper()
		ws := WorkSpec{Kind: "evaluate", Envs: []string{env}, Iters: 2, Seed: seed}
		res, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s seed %d: %v", env, seed, err)
		}
		out := map[string]int{}
		for _, e := range res.Artifact.Evaluate {
			out[e.Device] = e.Score.Killed
		}
		return out
	}
	for _, seed := range claimSeeds {
		pte, site := killed("pte", seed), killed("site", seed)
		if len(pte) != 4 || len(site) != 4 {
			t.Fatalf("seed %d: scored %d PTE and %d SITE devices, want the 4 Table 3 devices", seed, len(pte), len(site))
		}
		for dev, k := range pte {
			if k <= site[dev] {
				t.Errorf("seed %d %s: PTE killed %d mutants, SITE %d; want PTE > SITE", seed, dev, k, site[dev])
			}
		}
		t.Logf("seed %d: PTE %v, SITE %v", seed, pte, site)
	}
}

// TestClaimTable4Significant checks Table 4 at a reduced size: across
// 48 random parallel environments at four kernel launches each, every
// bug case's mutant death rate correlates positively and significantly
// (p < 0.05) with its conformance test's bug observation rate, at every
// claim seed.
func TestClaimTable4Significant(t *testing.T) {
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range claimSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			ws := WorkSpec{Kind: "correlate", TuneEnvs: 48, Iters: 4, Seed: seed}
			res, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Artifact.Correlation {
				if row.PCC <= 0 || row.PValue >= 0.05 {
					t.Errorf("%s: PCC %.3f, p %.3g; want PCC > 0 and p < 0.05", row.Case.Name, row.PCC, row.PValue)
				}
				t.Logf("%s: PCC %.3f, p %.3g", row.Case.Name, row.PCC, row.PValue)
			}
		})
	}
}
