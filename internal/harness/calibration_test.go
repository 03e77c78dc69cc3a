package harness

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

// TestCalibrationProbe is a diagnostic: it prints kill counts for key
// mutants across devices and environment families. Run with -v to see
// the table. It asserts only the paper's coarsest shape: PTE kills at
// least as many distinct mutants as SITE in aggregate.
func TestCalibrationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probe is slow")
	}
	suite := mutation.MustGenerate()
	mutants := []string{"CoRR-mutant", "CoWR-mutant", "MP", "SB", "LB", "S", "2+2W", "MP-relacq-nofence", "LB-relacq-norel"}
	envs := []struct {
		name  string
		p     Params
		iters int
	}{
		{"SITE-base", SITEBaseline(), 30},
		{"SITE-stress", stressedSITE(), 30},
		{"PTE-base", smallPTE(), 3},
		{"PTE-stress", stressedPTE(), 3},
	}
	totalKilled := map[string]int{}
	for _, devName := range []string{"NVIDIA", "AMD", "Intel", "M1"} {
		d := device(t, devName, gpu.Bugs{})
		for _, env := range envs {
			r, err := NewRunner(d, env.p)
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(77)
			killed := 0
			for _, name := range mutants {
				test, ok := suite.ByName(name)
				if !ok {
					t.Fatalf("missing %s", name)
				}
				res, err := r.RunCtx(context.Background(), test, env.iters, rng)
				if err != nil {
					t.Fatal(err)
				}
				mark := " "
				if res.TargetCount > 0 {
					killed++
					mark = "*"
				}
				t.Logf("%-7s %-12s %-18s kills=%-6d rate=%10.1f/s inst=%d",
					devName, env.name, name+mark, res.TargetCount, res.TargetRate(), res.Instances)
			}
			totalKilled[env.name] += killed
			t.Logf("%-7s %-12s TOTAL killed %d/%d", devName, env.name, killed, len(mutants))
		}
	}
	if totalKilled["PTE-stress"] < totalKilled["SITE-stress"] {
		t.Errorf("PTE killed fewer mutants than SITE in aggregate: %v", totalKilled)
	}
}
