package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/xrand"
)

// Harness-layer golden byte-identity fingerprints. The committed
// testdata/harness_golden.json was captured before the gpu executor
// rewrite (regenerate with UPDATE_GOLDEN=1): identical fingerprints
// prove the full RunInto pipeline — plan generation, device execution,
// outcome extraction, domain validation, classification, histogram —
// observes byte-identical device behavior.

// fingerprintResult hashes every deterministic field of a Result.
func fingerprintResult(t *testing.T, res *Result) string {
	t.Helper()
	hist, err := json.Marshal(res.Hist) // map keys sort: deterministic
	if err != nil {
		t.Fatal(err)
	}
	var first string
	if res.FirstViolation != nil {
		first = res.FirstViolation.Key()
	}
	doc := fmt.Sprintf("test=%s mutant=%v mutator=%s iters=%d discarded=%d instances=%d target=%d violations=%d sim=%x first=%q hist=%s",
		res.TestName, res.IsMutant, res.Mutator, res.Iterations, res.Discarded,
		res.Instances, res.TargetCount, res.Violations, res.SimSeconds, first, hist)
	sum := sha256.Sum256([]byte(doc))
	return hex.EncodeToString(sum[:])
}

// goldenPTEEnv mirrors the stressed parallel environment used by the
// repo-root experiment benchmarks.
func goldenPTEEnv() Params {
	p := PTEBaseline(8, 16)
	p.MaxWorkgroups = p.TestingWorkgroups + 4
	p.MemStressPct = 100
	p.MemStressIters = 8
	p.PreStressPct = 80
	p.PreStressIters = 2
	p.MemStride = 2
	p.MemLocOffset = 1
	return p
}

const harnessGoldenPath = "testdata/harness_golden.json"

func TestGoldenHarnessFingerprints(t *testing.T) {
	suite := mutation.MustGenerate()
	tests := []*litmus.Test{}
	for _, name := range []string{"MP", "SB", "MP-relacq", "CoRR"} {
		if tt, ok := suite.ByName(name); ok {
			tests = append(tests, tt)
		}
	}
	// Always include at least one conformance and one mutant even if a
	// name above drifts.
	tests = append(tests, suite.Conformance[0], suite.Mutants[0])

	type cell struct {
		name string
		dev  string
		bugs gpu.Bugs
		env  Params
		test *litmus.Test
	}
	var cells []cell
	for _, devName := range []string{"AMD", "Intel"} {
		for _, tt := range tests {
			cells = append(cells,
				cell{name: tt.Name + "/" + devName + "/pte", dev: devName, env: goldenPTEEnv(), test: tt},
				cell{name: tt.Name + "/" + devName + "/site", dev: devName, env: SITEBaseline(), test: tt},
			)
		}
	}
	// Buggy-device cells: the bug paths draw extra randomness, so the
	// fingerprint pins those draws too.
	if tt, ok := suite.ByName("MP-relacq"); ok {
		cells = append(cells, cell{name: "MP-relacq/AMD-dropfences/pte", dev: "AMD",
			bugs: gpu.Bugs{DropFences: true}, env: goldenPTEEnv(), test: tt})
	}
	if tt, ok := suite.ByName("CoRR"); ok {
		cells = append(cells, cell{name: "CoRR/Intel-corr/pte", dev: "Intel",
			bugs: gpu.Bugs{CoherenceRR: true, CoherenceRRProb: 0.3}, env: goldenPTEEnv(), test: tt})
	}

	got := make(map[string]string, len(cells))
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prof, ok := gpu.ProfileByName(c.dev)
			if !ok {
				t.Fatalf("profile %q missing", c.dev)
			}
			dev, err := gpu.NewDevice(prof, c.bugs)
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewRunner(dev, c.env)
			if err != nil {
				t.Fatal(err)
			}
			// Two RunInto batches on one reused Result: the second is
			// the warm path, and the merged totals pin both.
			res := &Result{}
			rng := xrand.New(77)
			for batch := 0; batch < 2; batch++ {
				if err := r.RunInto(context.Background(), res, c.test, 3, rng); err != nil {
					t.Fatal(err)
				}
			}
			fp := fingerprintResult(t, res)
			// The tail of the RNG stream pins the exact draw count.
			sum := sha256.Sum256([]byte(fp + fmt.Sprintf("|rng=%x", rng.Uint64())))
			got[c.name] = hex.EncodeToString(sum[:])
		})
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(harnessGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var buf []byte
		buf = append(buf, "{\n"...)
		for i, n := range names {
			comma := ","
			if i == len(names)-1 {
				comma = ""
			}
			buf = append(buf, fmt.Sprintf("  %q: %q%s\n", n, got[n], comma)...)
		}
		buf = append(buf, "}\n"...)
		if err := os.WriteFile(harnessGoldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), harnessGoldenPath)
		return
	}

	raw, err := os.ReadFile(harnessGoldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with UPDATE_GOLDEN=1 to capture): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, fp := range got {
		if want[name] == "" {
			t.Errorf("%s: no golden entry (run with UPDATE_GOLDEN=1 to capture)", name)
		} else if fp != want[name] {
			t.Errorf("%s: fingerprint diverged from pre-rewrite baseline", name)
		}
	}
}
