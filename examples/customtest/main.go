// Customtest shows the downstream-user workflow: define your own
// litmus test in the textual format, explore its outcome space under
// four memory models (with the operational oracles cross-checking the
// axiomatic checker), and run it on the simulated device fleet.
//
//	go run ./examples/customtest
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mm"
	"repro/internal/xrand"
)

// A release/acquire message-passing variant where the flag is an
// exchange: the reader RMWs the flag, so even without the reader-side
// fence the writer-side fence plus RMW ordering pins the data.
const source = `# custom test: MP with an RMW flag probe
test MP-rmw-probe
model rel-acq-SC-per-location
thread
  store x 1
  fence
  store y 2
thread
  r0 = exchange y 3
  fence
  r1 = load x
target r0=2 r1=0
`

func main() {
	test, err := litmus.ParseString(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(test)

	// 1. The outcome universe under four models. The SC and TSO sets
	// also come from operational machines — interleaving and
	// store-buffer semantics — which agree with the axiomatic checker.
	models := []mm.MCS{mm.SC, mm.TSO, mm.SCPerLocation, mm.RelAcqSCPerLocation}
	fmt.Println("allowed outcomes per model:")
	for _, model := range models {
		allowed := test.AllowedOutcomes(model)
		keys := make([]string, 0, len(allowed))
		for k := range allowed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  %-24s %d allowed\n", model.String()+":", len(keys))
		for _, k := range keys {
			fmt.Printf("      %s\n", k)
		}
	}
	opSC := test.SCOutcomes()
	fmt.Printf("operational SC machine reaches %d outcomes (must match the axiomatic count)\n\n", len(opSC))

	// 2. Is the target behavior ever allowed? Explain its status.
	o := test.TargetOutcome()
	verdict, err := test.Classify(o)
	if err != nil {
		log.Fatal(err)
	}
	if verdict.Allowed {
		fmt.Printf("target %s is ALLOWED under %v\n\n", test.Target, test.Model)
	} else {
		x, _ := test.Execution(o)
		fmt.Printf("target %s is FORBIDDEN under %v\n", test.Target, test.Model)
		fmt.Printf("forbidding cycle: %s\n\n", x.ExplainCycle(verdict.Cycle))
	}

	// 3. Run it across the fleet under a stressed PTE; a conformant
	// device must never exhibit a forbidden target.
	env := harness.PTEBaseline(8, 16)
	env.MaxWorkgroups = env.TestingWorkgroups + 4
	env.MemStressPct = 100
	env.MemStressIters = 8
	env.PreStressPct = 80
	env.PreStressIters = 2
	env.MemStride = 2
	env.MemLocOffset = 1
	for _, prof := range gpu.Profiles() {
		dev, err := gpu.NewDevice(prof, gpu.Bugs{})
		if err != nil {
			log.Fatal(err)
		}
		r, err := harness.NewRunner(dev, env)
		if err != nil {
			log.Fatal(err)
		}
		res, err := r.RunCtx(context.Background(), test, 10, xrand.New(7))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s instances=%d target=%d violations=%d\n",
			prof.ShortName, res.Instances, res.TargetCount, res.Violations)
	}
}
