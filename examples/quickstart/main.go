// Quickstart: run one litmus test in a parallel testing environment on
// a simulated device and inspect the outcome histogram.
//
// The message-passing (MP) test is the mutant of MP-CO from the
// paper's weakening po-loc mutator: its target behavior — seeing the
// flag but not the data — is legal on a relaxed device, and observing
// it "kills the mutant", showing the environment can expose weak
// memory behavior.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

func main() {
	// 1. Generate the paper's suite: 20 conformance tests, 32 mutants.
	suite, err := mutation.Generate()
	if err != nil {
		log.Fatal(err)
	}
	test, _ := suite.ByName("MP")
	fmt.Println(test)

	// 2. Pick a device from the Table 3 fleet.
	profile, _ := gpu.ProfileByName("AMD")
	device, err := gpu.NewDevice(profile, gpu.Bugs{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Build a parallel testing environment: 16 workgroups x 32
	// threads = 512 test instances per kernel launch, plus stress.
	env := harness.PTEBaseline(16, 32)
	env.MaxWorkgroups = env.TestingWorkgroups + 4
	env.MemStressPct = 100
	env.MemStressIters = 12
	env.PreStressPct = 80
	env.PreStressIters = 3
	env.MemStride = 2
	env.MemLocOffset = 1

	runner, err := harness.NewRunner(device, env)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Run and report. Every outcome is classified by the axiomatic
	// checker; the target condition marks the weak behavior of
	// interest.
	res, err := runner.RunCtx(context.Background(), test, 20, xrand.New(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ran %d instances over %d kernel launches (%.4f simulated seconds)\n",
		res.Instances, res.Iterations, res.SimSeconds)
	fmt.Printf("weak behavior %q observed %d times (%.4g per simulated second)\n",
		test.Target.String(), res.TargetCount, res.TargetRate())
	fmt.Printf("MCS violations: %d (a conformant device must report 0)\n\n", res.Violations)
	fmt.Println("outcome histogram:")
	fmt.Println(res.Hist)
}
