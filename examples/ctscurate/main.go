// Ctscurate demonstrates the MCS Test Confidence workflow (Sec. 4.2,
// 5.3): tune testing environments against the mutant suite, merge them
// per test with Algorithm 1, and emit a conformance-test-suite plan
// with a per-test time budget and a total reproducibility score — the
// process that put these tests into the official WebGPU CTS.
//
//	go run ./examples/ctscurate
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/confidence"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	study, err := core.NewStudy()
	if err != nil {
		log.Fatal(err)
	}

	// A small tuning study: a few random environments per family on two
	// devices. (The paper uses 150 environments on four devices; see
	// `mcmutants tune -paper-scale`.)
	ws := core.WorkSpec{Kind: "tune", Devices: []string{"AMD", "Intel"}, Seed: 2023, TuneEnvs: 4, SiteIters: 16, PTEIters: 3}
	fmt.Println("tuning environments over the 32-mutant suite...")
	res, err := study.RunWorkSpec(context.Background(), ws, core.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ds := res.Dataset

	// How does the achievable mutation score trade off against the
	// per-test time budget? (Fig. 6.)
	points, err := confidence.BudgetSweep(
		ds.RateTables("PTE"), ds.Devices(),
		[]float64{0.95, 0.99999},
		confidence.PowersOfTwoBudgets(-10, 0),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbudget sweep (PTE environments):")
	fmt.Print(report.Fig6(points))

	// Curate the suite at a 99.999% per-test reproducibility target
	// with a 1/16 s simulated budget per test.
	plan, err := core.CurateCTS(ds, "PTE", 0.99999, 1.0/16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCTS plan (target %.5g%%, %.4gs per test):\n", 100*plan.Target, plan.Budget)
	reproducible := 0
	for _, e := range plan.Entries {
		mark := " "
		if e.Reproducible {
			mark = "*"
			reproducible++
		}
		fmt.Printf(" %s %-22s env=%-10s devices=%d/%d\n",
			mark, e.Test, e.Env, e.DevicesMeeting, e.TotalDevices)
	}
	fmt.Printf("\n%d/%d mutants reproducible everywhere (mutation score %.1f%%)\n",
		reproducible, len(plan.Entries), 100*plan.MutationScore)
	fmt.Printf("total suite budget: %.4g simulated seconds\n", plan.TotalBudgetSeconds)
	fmt.Printf("total reproducibility of one CTS run: %.4f%%\n", 100*plan.TotalReproducibility)
}
