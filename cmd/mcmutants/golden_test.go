package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// CLI-layer golden byte-identity. The committed
// testdata/campaign_conformance.golden.json was produced before the
// gpu executor rewrite, and testdata/campaign_conformance_fencebug.golden.json
// before the in-place wgsl lowering rewrite (regenerate with
// UPDATE_GOLDEN=1). A campaign artifact folds together every layer —
// kernelgen, backend lowering, the device executor, outcome
// classification, sched's split-seed parallel merge and the canonical
// artifact encoding — so byte-identity here, at both -parallel 1 and
// -parallel 8, is the end-to-end proof that a rewrite changed no
// observable behavior. The -fence-bug case runs every program through
// the defective Vulkan lowering (AMD, NVIDIA) so the fence-dropping
// path is pinned too. Conformance kind on purpose: its artifact carries
// no wall-time fields.
func TestGoldenCampaignArtifact(t *testing.T) {
	for _, c := range []struct {
		name, golden string
		args         []string
	}{
		{"conformant", "testdata/campaign_conformance.golden.json",
			[]string{"-devices", "AMD,Intel", "-envs", "pte", "-iters", "6", "-seed", "13"}},
		{"fence-bug", "testdata/campaign_conformance_fencebug.golden.json",
			[]string{"-devices", "AMD,NVIDIA", "-envs", "pte", "-iters", "6", "-seed", "13", "-fence-bug"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			artifact := func(parallel int) []byte {
				out := filepath.Join(dir, "report-p"+strconv.Itoa(parallel)+".json")
				args := append([]string{"campaign", "-kind", "conformance"}, c.args...)
				args = append(args, "-parallel", strconv.Itoa(parallel), "-quiet", "-out", out)
				if _, err := capture(t, func() error { return run(args) }); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}

			p1 := artifact(1)
			p8 := artifact(8)
			if !bytes.Equal(p1, p8) {
				t.Fatal("campaign artifact differs between -parallel 1 and -parallel 8")
			}

			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(c.golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(c.golden, p1, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d artifact bytes to %s", len(p1), c.golden)
				return
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatalf("golden artifact missing (run with UPDATE_GOLDEN=1 to capture): %v", err)
			}
			if !bytes.Equal(p1, want) {
				t.Errorf("campaign artifact diverged from the committed baseline (%d bytes vs %d golden)",
					len(p1), len(want))
			}
		})
	}
}
