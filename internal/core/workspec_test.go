package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/tuning"
)

func TestWorkSpecValidate(t *testing.T) {
	conf := WorkSpec{Kind: "conformance", Devices: []string{"AMD"}, Envs: []string{"pte"}, Iters: 2, Seed: 1}
	tune := WorkSpec{Kind: "tune", Devices: []string{"AMD"}, Seed: 2023, TuneEnvs: 1, SiteIters: 2, PTEIters: 1}
	corr := KindDefaults("correlate")
	with := func(ws WorkSpec, edit func(*WorkSpec)) WorkSpec {
		edit(&ws)
		return ws
	}
	for _, c := range []struct {
		name string
		ws   WorkSpec
		ok   bool
	}{
		{"conformance", conf, true},
		{"tune", tune, true},
		{"fleet by default", with(conf, func(ws *WorkSpec) { ws.Devices = nil }), true},
		{"tune rejects envs", with(tune, func(ws *WorkSpec) { ws.Envs = []string{"pte"} }), false},
		{"tune rejects iters", with(tune, func(ws *WorkSpec) { ws.Iters = 7 }), false},
		{"tune rejects fence bug", with(tune, func(ws *WorkSpec) { ws.FenceBug = true }), false},
		{"conformance rejects tune envs", with(conf, func(ws *WorkSpec) { ws.TuneEnvs = 1 }), false},
		{"evaluate rejects site iters", with(conf, func(ws *WorkSpec) { ws.Kind, ws.SiteIters = "evaluate", 2 }), false},
		{"conformance rejects pte iters", with(conf, func(ws *WorkSpec) { ws.PTEIters = 1 }), false},
		{"evaluate rejects paper scale", with(conf, func(ws *WorkSpec) { ws.Kind, ws.PaperScale = "evaluate", true }), false},
		{"evaluate", with(conf, func(ws *WorkSpec) { ws.Kind = "evaluate" }), true},
		{"unknown kind", with(conf, func(ws *WorkSpec) { ws.Kind = "bogus" }), false},
		{"unknown device", with(conf, func(ws *WorkSpec) { ws.Devices = []string{"NoSuchGPU"} }), false},
		{"conformance repeated device", with(conf, func(ws *WorkSpec) { ws.Devices = []string{"AMD", "Intel", "AMD"} }), false},
		{"evaluate repeated device", with(conf, func(ws *WorkSpec) { ws.Kind, ws.Devices = "evaluate", []string{"AMD", "AMD"} }), false},
		{"tune repeated device", with(tune, func(ws *WorkSpec) { ws.Devices = []string{"AMD", "AMD"} }), false},
		{"unknown env", with(conf, func(ws *WorkSpec) { ws.Envs = []string{"warp9"} }), false},
		{"no envs", with(conf, func(ws *WorkSpec) { ws.Envs = nil }), false},
		{"zero iters", with(conf, func(ws *WorkSpec) { ws.Iters = 0 }), false},
		{"negative retries", with(conf, func(ws *WorkSpec) { ws.Retries = -1 }), false},
		{"negative backoff", with(conf, func(ws *WorkSpec) { ws.BackoffMS = -1 }), false},
		{"negative cell timeout", with(conf, func(ws *WorkSpec) { ws.CellTimeoutMS = -1 }), false},
		{"tune negative retries", with(tune, func(ws *WorkSpec) { ws.Retries = -1 }), false},
		{"tune negative cell timeout", with(tune, func(ws *WorkSpec) { ws.CellTimeoutMS = -1 }), false},
		{"tune zero envs", with(tune, func(ws *WorkSpec) { ws.TuneEnvs = 0 }), false},
		{"tune zero site iters", with(tune, func(ws *WorkSpec) { ws.SiteIters = 0 }), false},
		{"tune negative pte iters", with(tune, func(ws *WorkSpec) { ws.PTEIters = -3 }), false},
		{"correlate", corr, true},
		{"correlate with faults", with(corr, func(ws *WorkSpec) { ws.Faults = &gpu.FaultModel{WatchdogTicks: 1 << 20} }), true},
		{"correlate rejects devices", with(corr, func(ws *WorkSpec) { ws.Devices = []string{"AMD"} }), false},
		{"correlate rejects envs", with(corr, func(ws *WorkSpec) { ws.Envs = []string{"pte"} }), false},
		{"correlate rejects fence bug", with(corr, func(ws *WorkSpec) { ws.FenceBug = true }), false},
		{"correlate rejects site iters", with(corr, func(ws *WorkSpec) { ws.SiteIters = 2 }), false},
		{"correlate rejects pte iters", with(corr, func(ws *WorkSpec) { ws.PTEIters = 2 }), false},
		{"correlate rejects paper scale", with(corr, func(ws *WorkSpec) { ws.PaperScale = true }), false},
		{"correlate zero envs", with(corr, func(ws *WorkSpec) { ws.TuneEnvs = 0 }), false},
		{"correlate zero iters", with(corr, func(ws *WorkSpec) { ws.Iters = 0 }), false},
		{"correlate negative retries", with(corr, func(ws *WorkSpec) { ws.Retries = -1 }), false},
	} {
		if err := c.ws.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// TestDurationMS: positive durations never round to 0 (unbounded) and
// negative ones never round to 0 (accepted).
func TestDurationMS(t *testing.T) {
	for d, want := range map[time.Duration]int64{
		0: 0, time.Nanosecond: 1, time.Millisecond: 1, 1500 * time.Microsecond: 2,
		-time.Nanosecond: -1, -time.Millisecond: -1, -1500 * time.Microsecond: -2,
	} {
		if got := DurationMS(d); got != want {
			t.Errorf("DurationMS(%v) = %d, want %d", d, got, want)
		}
	}
}

// TestTuneWorkSpec: a tune spec plans the tuning study's own manifest,
// records a fault model only when it injects faults or bounds the
// watchdog, and has a work unit for distributed workers.
func TestTuneWorkSpec(t *testing.T) {
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkSpec{Kind: "tune", Devices: []string{"AMD", "Intel"}, Seed: 9, TuneEnvs: 2, SiteIters: 3, PTEIters: 1}
	manifest, cells, err := st.PlanWorkSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tuning.SmallConfig()
	cfg.Environments, cfg.SITEIterations, cfg.PTEIterations = 2, 3, 1
	cfg.Seed, cfg.Devices = 9, []string{"AMD", "Intel"}
	camp, err := tuning.PlanCampaign(cfg, st.Suite.Mutants)
	if err != nil {
		t.Fatal(err)
	}
	if manifest != camp.Spec.Manifest() || cells != len(camp.Spec.Cells) {
		t.Fatalf("tune plan (%d cells) differs from tuning.PlanCampaign (%d cells)", cells, len(camp.Spec.Cells))
	}

	silent := gpu.UniformFaults(ws.Seed, 0)
	ws.Faults = &silent
	if got := ws.tuneConfig().Faults; got != nil {
		t.Errorf("a model that injects nothing was recorded: %+v", got)
	}
	watchdog := gpu.FaultModel{WatchdogTicks: 1 << 20}
	ws.Faults = &watchdog
	if got := ws.tuneConfig().Faults; got == nil || *got != watchdog {
		t.Errorf("watchdog-only model not recorded: %+v", got)
	}

	unit, err := DistWork(ws, DistWorkOptions{})
	if err != nil {
		t.Fatalf("DistWork refused a tune spec: %v", err)
	}
	if unit.Spec.Manifest() != manifest {
		t.Errorf("tune work unit manifest differs from the plan")
	}
}

// TestEvaluateWorkSpecInterruptResume: a two-device evaluate spec
// cancelled mid-campaign keeps one checkpoint at the path given, and a
// resumed run publishes the artifact an uninterrupted run publishes.
func TestEvaluateWorkSpecInterruptResume(t *testing.T) {
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	ws := WorkSpec{Kind: "evaluate", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 2, Seed: 4}
	clean, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := encodeArtifact(t, clean.Artifact)

	ckpt := filepath.Join(t.TempDir(), "eval.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0
	partial, err := st.RunWorkSpec(ctx, ws, CampaignOptions{
		Workers: 2, CheckpointPath: ckpt,
		// Cancel once the first device's cells are under way, so the
		// interruption falls inside the fleet campaign.
		Progress: func(string) {
			if started++; started == 40 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Interrupted || partial.Pending == 0 {
		t.Fatalf("run was not interrupted mid-campaign: interrupted %v, pending %d", partial.Interrupted, partial.Pending)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint at the path given: %v", err)
	}

	resumed, err := st.RunWorkSpec(context.Background(), ws, CampaignOptions{Workers: 2, CheckpointPath: ckpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeArtifact(t, resumed.Artifact); !bytes.Equal(want, got) {
		t.Fatalf("resumed artifact differs:\nclean:\n%s\nresumed:\n%s", want, got)
	}
}
