package harness

import (
	"context"
	"testing"

	"repro/internal/gpu"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

func TestKillMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	suite := mutation.MustGenerate()
	envs := []struct {
		name  string
		p     Params
		iters int
	}{
		{"SITE-base", SITEBaseline(), 60},
		{"PTE-base", PTEBaseline(8, 16), 6},
		{"PTE-stress", stressedPTE(), 6},
	}
	for _, env := range envs {
		for _, devName := range []string{"NVIDIA", "AMD", "Intel", "M1"} {
			d := device(t, devName, gpu.Bugs{})
			r, err := NewRunner(d, env.p)
			if err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(101)
			killed := 0
			names := ""
			for _, mt := range suite.Mutants {
				res, err := r.RunCtx(context.Background(), mt, env.iters, rng)
				if err != nil {
					t.Fatal(err)
				}
				if res.TargetCount > 0 {
					killed++
					names += " " + mt.Name
				}
			}
			t.Logf("%-11s %-7s %2d/32:%s", env.name, devName, killed, names)
		}
	}
}
