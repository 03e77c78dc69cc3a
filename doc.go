// Package repro is a from-scratch Go reproduction of "MC Mutants:
// Evaluating and Improving Testing for Memory Consistency
// Specifications" (Levine et al., ASPLOS 2023).
//
// The library generates the paper's litmus-test suite (20 conformance
// tests and 32 mutants via three mutators over happens-before cycles),
// executes it in single-instance (SITE) and parallel (PTE) testing
// environments on a simulated multi-vendor GPU fleet, classifies every
// outcome with an axiomatic memory-model checker, and implements the
// MCS Test Confidence machinery (reproducibility scores and
// Algorithm 1) used to curate conformance test suites.
//
// Layout:
//
//	internal/mm         memory consistency formalism and checker
//	internal/litmus     litmus tests, outcomes, histograms
//	internal/mutation   the three mutators; suite generation (Table 2)
//	internal/gpu        simulated GPU devices (Table 3) + injected bugs
//	internal/wgsl       WGSL shader emission and backend lowering
//	internal/harness    SITE/PTE testing environments (Fig. 4)
//	internal/confidence reproducibility scores, Algorithm 1 (Fig. 6)
//	internal/stats      Pearson correlation, t-test (Table 4)
//	internal/tuning     tuning studies (Fig. 5)
//	internal/report     text rendering of every table and figure
//	internal/core       high-level API: evaluate, check, correlate, curate
//	cmd/mcmutants       the CLI workbench
//	examples/...        runnable scenarios
//
// The benchmarks in bench_test.go regenerate each table and figure at
// a simulation-friendly scale; see EXPERIMENTS.md for paper-vs-measured
// comparisons.
package repro
