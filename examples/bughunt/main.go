// Bughunt reproduces the paper's bug discoveries (Sec. 1.1, 5.4): the
// conformance suite is run against three defective platforms —
//
//   - WebGPU over Metal on an Intel GPU, whose memory pipeline can
//     complete two same-location loads out of order (the CoRR bug of
//     Fig. 1a),
//   - an AMD device whose Vulkan compiler loses release/acquire
//     semantics in an intermediate representation (the MP-relacq bug
//     of Fig. 1b, which led to a WebGPU specification change),
//   - an NVIDIA Kepler device whose L1 caches are not coherent (the
//     MP-CO violation recreated from prior work) —
//
// and each violation is explained as a happens-before cycle.
//
//	go run ./examples/bughunt
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/harness"
)

func main() {
	ctx := context.Background()
	study, err := core.NewStudy()
	if err != nil {
		log.Fatal(err)
	}

	env := harness.PTEBaseline(16, 32)
	env.MaxWorkgroups = env.TestingWorkgroups + 4
	env.MemStressPct = 100
	env.MemStressIters = 12
	env.PreStressPct = 80
	env.PreStressIters = 3
	env.MemStride = 2
	env.MemLocOffset = 1

	// The defective platforms are Table 4's bug cases, the one
	// definition of each injected bug.
	labels := map[string]string{
		"Intel/CoRR":    "Intel Iris Plus via Metal (coherence defect)",
		"AMD/MP-relacq": "AMD Radeon Pro via Vulkan (fence-dropping compiler)",
		"NVIDIA/MP-CO":  "NVIDIA Kepler via Vulkan (non-coherent L1)",
	}
	for _, bc := range core.PaperBugCases() {
		fmt.Printf("=== %s ===\n", labels[bc.Name])
		reps, err := study.CheckFleetConformanceCtx(ctx, []core.Platform{bc.Platform}, env, 20, 7, core.CampaignOptions{})
		if err != nil {
			log.Fatal(err)
		}
		rep := reps[0]
		buggy := rep.Buggy()
		if len(buggy) == 0 {
			fmt.Println("no violations observed (try more iterations)")
			continue
		}
		for _, f := range buggy {
			fmt.Printf("  %s (%s) FAILED: %d/%d instances, %.4g violations/s\n",
				f.Test, f.Mutator, f.Violations, f.Instances, f.ViolationRate)
			fmt.Printf("    witnessed outcome: %s\n", f.Outcome)
			fmt.Printf("    forbidden hb cycle: %s\n", f.Explanation)
		}
		fmt.Println()
	}

	// A conformant platform, for contrast, must pass everything.
	fmt.Println("=== conformant M1 (control) ===")
	reps, err := study.CheckFleetConformanceCtx(ctx, []core.Platform{{Device: "M1"}}, env, 10, 7, core.CampaignOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep := reps[0]
	if len(rep.Buggy()) == 0 {
		fmt.Println("all 20 conformance tests passed")
	} else {
		fmt.Println("unexpected violations — the simulator is misconfigured")
	}
}
