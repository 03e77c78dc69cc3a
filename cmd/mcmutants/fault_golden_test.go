package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// Fault-semantics golden fingerprints. The committed
// testdata/fault_golden.json was captured while every conformance and
// evaluate cell still built a fresh device (regenerate with
// UPDATE_GOLDEN=1). The other fault tests compare two runs of the same
// code (worker counts, local vs dist), so an injected-fault count
// leaking from one cell into the next on a reused device would pass
// them; these pin the absolute bytes instead. Each case escalates
// faults to device loss (-loss-after) and retries cells, so a cell
// whose device started with a stale fault count would turn into a
// different error or outcome. The tune case walks cells that switch
// device and environment every few cells.
var faultGoldenCases = []struct {
	name string
	args []string
}{
	{"conformance", []string{"campaign", "-kind", "conformance", "-devices", "AMD,Intel,M1",
		"-iters", "4", "-seed", "5", "-faults", "-fault-rate", "0.3", "-loss-after", "2", "-retries", "2"}},
	{"evaluate", []string{"campaign", "-kind", "evaluate", "-devices", "AMD,Intel", "-envs", "pte,site",
		"-iters", "2", "-seed", "5", "-faults", "-fault-rate", "0.3", "-loss-after", "2", "-retries", "2"}},
	{"tune", []string{"tune", "-envs", "2", "-site-iters", "6", "-pte-iters", "2", "-devices", "AMD,Intel",
		"-seed", "7", "-faults", "-fault-rate", "0.1", "-loss-after", "3", "-retries", "2"}},
}

// wallSeconds matches the host-time fields evaluate artifacts embed.
var wallSeconds = regexp.MustCompile(`"WallSeconds": [-+.eE0-9]+`)

func TestGoldenFaultedArtifacts(t *testing.T) {
	const golden = "testdata/fault_golden.json"
	got := map[string]string{}
	for _, c := range faultGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			artifact := func(parallel int) []byte {
				out := filepath.Join(dir, "p"+strconv.Itoa(parallel)+".json")
				args := append([]string{}, c.args...)
				args = append(args, "-parallel", strconv.Itoa(parallel), "-quiet", "-out", out)
				_, err := capture(t, func() error { return run(args) })
				var pf *partialFailure
				if !errors.As(err, &pf) {
					t.Fatalf("faulted run returned %v, want a degraded (exit 2) completion", err)
				}
				raw, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				return wallSeconds.ReplaceAll(raw, []byte(`"WallSeconds": 0`))
			}
			p1 := artifact(1)
			if p2 := artifact(2); !bytes.Equal(p1, p2) {
				t.Fatal("faulted artifact differs between -parallel 1 and -parallel 2")
			}
			sum := sha256.Sum256(p1)
			got[c.name] = hex.EncodeToString(sum[:])
		})
	}
	if t.Failed() {
		return
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), golden)
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("fault golden missing (run with UPDATE_GOLDEN=1 to capture): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, c := range faultGoldenCases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: faulted artifact sha256 %s, golden %s", c.name, got[c.name], want[c.name])
		}
	}
}
