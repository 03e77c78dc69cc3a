package core

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/resultcache"
	"repro/internal/sched"
)

// TestCorrelationStudy runs a scaled-down Table 4 through the correlate
// kind: each injected bug's observation rate must correlate positively
// and strongly with its mutant's death rate across random
// environments. It runs EXPERIMENTS.md's medium size, 60 environments
// at 20 launches: at 24 environments and 4 launches a PCC under .5 is a
// matter of the seed's stream (EXPERIMENTS.md, Table 4).
func TestCorrelationStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("correlation study is slow")
	}
	ws := WorkSpec{Kind: "correlate", TuneEnvs: 60, Iters: 20, Seed: 2023}
	res, err := study(t).RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Artifact.Correlation) != 3 {
		t.Fatalf("%d rows, want the 3 Table 4 cases", len(res.Artifact.Correlation))
	}
	for _, row := range res.Artifact.Correlation {
		t.Logf("%-16s PCC=%.3f p=%.2g bug-envs=%d/%d mutant-envs=%d/%d",
			row.Case.Name, row.PCC, row.PValue,
			row.BugObservedIn, row.Environments,
			row.MutantKilledIn, row.Environments)
		if row.BugObservedIn == 0 {
			t.Errorf("%s: injected bug never observed", row.Case.Name)
		}
		if row.MutantKilledIn == 0 {
			t.Errorf("%s: mutant never killed", row.Case.Name)
		}
		if row.PCC < 0.5 {
			t.Errorf("%s: PCC %.3f too weak (paper: >= .89)", row.Case.Name, row.PCC)
		}
	}
}

// TestCorrelateUnknownNames: a bug case naming an unknown test or
// device fails when the campaign is planned, before any cell runs.
func TestCorrelateUnknownNames(t *testing.T) {
	st := study(t)
	for what, edit := range map[string]func(*BugCase){
		"conformance test": func(c *BugCase) { c.Conformance = "nope" },
		"mutant":           func(c *BugCase) { c.Mutant = "nope" },
		"device":           func(c *BugCase) { c.Platform.Device = "nope" },
	} {
		cases := PaperBugCases()
		edit(&cases[0])
		if _, _, err := st.correlateCampaign(cases, 3, 1); err == nil {
			t.Errorf("unknown %s accepted", what)
		}
	}
}

// TestCorrelateWorkSpecByteIdentical: a correlate artifact does not
// depend on the worker count, on the result cache being off, cold or
// warm, or on an interruption resumed from one checkpoint.
func TestCorrelateWorkSpecByteIdentical(t *testing.T) {
	st := study(t)
	ws := WorkSpec{Kind: "correlate", TuneEnvs: 4, Iters: 2, Seed: 5}
	_, cells, err := st.PlanWorkSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	if cells != 3*4*2 {
		t.Fatalf("planned %d cells, want 3 cases x 4 environments x 2 roles", cells)
	}
	artifact := func(ctx context.Context, o CampaignOptions) (*WorkResult, []byte) {
		t.Helper()
		res, err := st.RunWorkSpec(ctx, ws, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, encodeArtifact(t, res.Artifact)
	}
	_, want := artifact(context.Background(), CampaignOptions{Workers: 1})
	for _, workers := range []int{2, 4} {
		if _, got := artifact(context.Background(), CampaignOptions{Workers: workers}); !bytes.Equal(want, got) {
			t.Fatalf("%d workers: artifact differs:\n%s\nvs\n%s", workers, got, want)
		}
	}

	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		cache, err := resultcache.Open(dir, resultcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var final sched.Progress
		_, got := artifact(context.Background(), CampaignOptions{Workers: 2, Cache: cache,
			OnProgress: func(p sched.Progress) { final = p }})
		if !bytes.Equal(want, got) {
			t.Fatalf("%s cache: artifact differs", pass)
		}
		if pass == "warm" && final.CacheHits != cells {
			t.Fatalf("warm cache served %d of %d cells", final.CacheHits, cells)
		}
	}

	ckpt := filepath.Join(t.TempDir(), "correlate.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	partial, _ := artifact(ctx, CampaignOptions{Workers: 2, CheckpointPath: ckpt,
		Progress: func(string) {
			if started++; started == cells/2 {
				cancel()
			}
		}})
	pending := 0
	for _, row := range partial.Artifact.Correlation {
		pending += row.Pending
	}
	if !partial.Interrupted || partial.Pending == 0 || pending != partial.Pending {
		t.Fatalf("interrupted %v with %d pending cells, rows report %d", partial.Interrupted, partial.Pending, pending)
	}
	if _, got := artifact(context.Background(), CampaignOptions{Workers: 2, CheckpointPath: ckpt, Resume: true}); !bytes.Equal(want, got) {
		t.Fatalf("resumed artifact differs:\n%s\nvs\n%s", got, want)
	}
}

// TestCorrelateFailedCellsDropEnvironments: a cell that produces no
// data is reported in its row, drops its environment from the row's
// statistics, and degrades the verdict.
func TestCorrelateFailedCellsDropEnvironments(t *testing.T) {
	fm := gpu.UniformFaults(3, 0.2)
	ws := WorkSpec{Kind: "correlate", TuneEnvs: 6, Iters: 2, Seed: 3, Faults: &fm}
	res, err := study(t).RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2, Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, row := range res.Artifact.Correlation {
		dropped := map[string]bool{}
		for _, f := range row.Failures {
			dropped[f.Key[:strings.LastIndex(f.Key, "/")]] = true
		}
		failed += len(row.Failures)
		if row.Environments != ws.TuneEnvs-len(dropped) {
			t.Errorf("%s: %d environments kept, %d dropped, want %d in all", row.Case.Name, row.Environments, len(dropped), ws.TuneEnvs)
		}
	}
	if failed == 0 || res.Failed != failed || !res.Degraded() {
		t.Fatalf("rows report %d failed cells, verdict %d (degraded %v); want the same nonzero count", failed, res.Failed, res.Degraded())
	}
}
