package core

import (
	"context"
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
