// Tuningstudy runs a scaled-down Fig. 5: the 32-mutant suite across
// the four environment families (SITE Baseline, SITE, PTE Baseline,
// PTE) on the Table 3 device fleet, reporting mutation scores and
// average mutant death rates per mutator and device, plus the headline
// aggregate comparisons of Sec. 5.2.
//
//	go run ./examples/tuningstudy
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	study, err := core.NewStudy()
	if err != nil {
		log.Fatal(err)
	}
	ws := core.WorkSpec{Kind: "tune", Seed: 2023, TuneEnvs: 5, SiteIters: 30, PTEIters: 4}
	fmt.Fprintln(os.Stderr, "running the tuning study (4 families x 4 devices x 32 mutants)...")
	res, err := study.RunWorkSpec(context.Background(), ws, core.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ds := res.Dataset

	fmt.Print(report.Fig5(ds))

	// Headline aggregates (Sec. 5.2): PTE vs SITE in score and rate.
	pteKilled, total := ds.MutationScore("PTE", "", "")
	siteKilled, _ := ds.MutationScore("SITE", "", "")
	pteBaseKilled, _ := ds.MutationScore("PTE-Baseline", "", "")
	siteBaseKilled, _ := ds.MutationScore("SITE-Baseline", "", "")
	pteRate := ds.AvgDeathRate("PTE", "", "")
	siteRate := ds.AvgDeathRate("SITE", "", "")

	pct := func(k int) float64 { return 100 * float64(k) / float64(total) }
	fmt.Println("== headline comparison (paper Sec. 5.2) ==")
	fmt.Printf("mutation score: PTE %.1f%%  SITE %.1f%%  PTE-Baseline %.1f%%  SITE-Baseline %.1f%%\n",
		pct(pteKilled), pct(siteKilled), pct(pteBaseKilled), pct(siteBaseKilled))
	fmt.Printf("avg death rate: PTE %.4g/s  SITE %.4g/s", pteRate, siteRate)
	if siteRate > 0 {
		fmt.Printf("  (%.0fx)", pteRate/siteRate)
	}
	fmt.Println()
	fmt.Println()
	fmt.Println("paper's shape: PTE kills more mutants than SITE at a death rate")
	fmt.Println("orders of magnitude higher; stress helps SITE most; the reversing")
	fmt.Println("po-loc mutants die fastest and the weakening sw mutants slowest.")
}
