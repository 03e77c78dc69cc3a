// Chaos demonstrates graceful degradation on a faulty device fleet:
// every device runs under a deterministic fault-injection model
// (launch failures, hangs, result corruption), the harness discards
// corrupted iterations instead of misclassifying them as memory-model
// violations, and the scheduler's per-device circuit breaker
// quarantines a device that fails repeatedly so the campaign finishes
// on the survivors. Every dropped cell is recorded — nothing is
// silently skipped — and the whole run is byte-identical at any worker
// count.
//
//	go run ./examples/chaos
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/sched"
)

func main() {
	study, err := core.NewStudy()
	if err != nil {
		log.Fatal(err)
	}
	env := harness.PTEBaseline(16, 32)

	// A three-device fleet: Intel and NVIDIA are mildly flaky (2%
	// per-launch fault rate), while the AMD device is seriously
	// unhealthy — a 20% fault rate that trips the circuit breaker —
	// and dies for good after twelve injected faults, exercising the
	// permanent-loss path.
	flaky := gpu.UniformFaults(7, 0.02)
	dying := gpu.UniformFaults(7, 0.20)
	dying.LossAfter = 12
	platforms := []core.Platform{
		{Device: "AMD", Faults: dying},
		{Device: "Intel", Faults: flaky},
		{Device: "NVIDIA", Faults: flaky},
	}

	opts := core.CampaignOptions{
		Workers: 4,
		Retries: 1, // one retry per cell: transient faults get a second chance
		Collect: true,
		Breaker: &sched.BreakerOptions{Threshold: 3, Cooldown: 2},
	}
	reports, err := study.CheckFleetConformanceCtx(context.Background(), platforms, env, 8, 7, opts)
	if err != nil {
		log.Fatal(err)
	}

	totalFailed, totalQuarantined := 0, 0
	for _, rep := range reports {
		failed := rep.Failed()
		fmt.Printf("=== %s: %d/%d conformance cells produced data ===\n",
			rep.Platform.Device, len(rep.Findings)-len(failed), len(rep.Findings))
		for _, f := range failed {
			tag := "failed"
			if f.Quarantined {
				tag = "quarantined"
			}
			fmt.Printf("  %-22s %s: %s\n", f.Test, tag, f.Error)
			totalFailed++
			if f.Quarantined {
				totalQuarantined++
			}
		}
		for _, b := range rep.Buggy() {
			fmt.Printf("  %-22s VIOLATED (%d/%d) — should not happen on a conformant fleet\n",
				b.Test, b.Violations, b.Instances)
		}
		for _, h := range rep.Health {
			state := "closed"
			if h.Open {
				state = "open"
			}
			fmt.Printf("  breaker %s: %d cells, %d failed, %d quarantined, %d retries\n",
				state, h.Cells, h.Failed, h.Quarantined, h.Retries)
		}
		fmt.Println()
	}
	fmt.Printf("fleet summary: %d cell(s) produced no data, %d of them quarantined\n",
		totalFailed, totalQuarantined)
	fmt.Println("every dropped cell above is recorded — the campaign degraded gracefully instead of aborting")
}
