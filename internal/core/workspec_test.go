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

// TestCacheSaltGolden pins the result-cache salt of one spec per kind,
// each under a non-zero retry policy. The salt keys every shared cache
// entry of the CLI, serve and distributed workers, so a change to these
// bytes orphans every cache filled before it. For conformance,
// evaluate and correlate the salt is WorkSpec.CacheSalt; tune salts as
// tuning.Campaign.CacheSalt does.
func TestCacheSaltGolden(t *testing.T) {
	st, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	fm := gpu.UniformFaults(3, 0.02)
	for _, c := range []struct {
		ws   WorkSpec
		want string
	}{
		{
			WorkSpec{Kind: "conformance", Devices: []string{"AMD", "Intel"}, Envs: []string{"pte"}, Iters: 4, Seed: 9,
				FenceBug: true, Retries: 2, CellTimeoutMS: 1500},
			`{"kind":"conformance","devices":["AMD","Intel"],"envs":["pte"],"iters":4,"seed":9,"fence_bug":true,"retries":2,"cell_timeout_ms":1500}`,
		},
		{
			WorkSpec{Kind: "evaluate", Devices: []string{"M1"}, Envs: []string{"pte", "site-baseline"}, Iters: 2, Seed: 5,
				Faults: &fm, Retries: 1, CellTimeoutMS: 250},
			`{"kind":"evaluate","devices":["M1"],"envs":["pte","site-baseline"],"iters":2,"seed":5,"faults":{"Seed":3,"LaunchFailProb":0.02,"HangProb":0.02,"CorruptProb":0.02,"LossAfter":0,"WatchdogTicks":0},"retries":1,"cell_timeout_ms":250}`,
		},
		{
			WorkSpec{Kind: "correlate", TuneEnvs: 6, Iters: 3, Seed: 2023, Retries: 3, CellTimeoutMS: 60000},
			`{"kind":"correlate","devices":null,"envs":null,"iters":3,"seed":2023,"retries":3,"cell_timeout_ms":60000,"tune_envs":6}`,
		},
		{
			WorkSpec{Kind: "tune", Devices: []string{"AMD"}, Seed: 7, TuneEnvs: 2, SiteIters: 3, PTEIters: 1,
				Retries: 2, CellTimeoutMS: 1500},
			`{"payload":"tuning-measurement/v1","config":{"Environments":2,"SITEIterations":3,"PTEIterations":1,"PTEWorkgroups":8,"PTEWorkgroupSize":16,"Scale":{"MinTestingWG":2,"MaxTestingWG":16,"MinWGSizeLog2":3,"MaxWGSizeLog2":6,"MaxStressWG":8,"MaxStressIters":24,"MaxPreStressIters":8},"Devices":["AMD"],"Seed":7},"retries":2,"cell_timeout_ms":1500}`,
		},
	} {
		camp, err := st.expand(c.ws)
		if err != nil {
			t.Fatalf("%s: %v", c.ws.Kind, err)
		}
		got, err := camp.salt()
		if err != nil {
			t.Fatalf("%s: %v", c.ws.Kind, err)
		}
		if got != c.want {
			t.Errorf("%s salt drifted:\n%s\nwant\n%s", c.ws.Kind, got, c.want)
		}
		if c.ws.Kind == "tune" {
			continue
		}
		if direct, err := c.ws.CacheSalt(); err != nil || direct != got {
			t.Errorf("%s: WorkSpec.CacheSalt() = %s, %v; the campaign salts with %s", c.ws.Kind, direct, err, got)
		}
	}
}
