package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diskio"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/litmus"
	"repro/internal/mutation"
	"repro/internal/resultcache"
	"repro/internal/sched"
	"repro/internal/tuning"
	"repro/internal/wgsl"
)

// minRounds is the fewest campaign rounds a run measures, however
// short --seconds is, so that every median has three samples.
const minRounds = 3

// conformanceWorkload is a fleet CTS campaign: every conformance test
// on every device, through the fence-dropping driver, checkpointed at
// the default cadence, without a result cache. It matches
//
//	mcmutants campaign -kind conformance -fence-bug -envs pte -iters 20 -parallel 2 -checkpoint F -out F
type conformanceWorkload struct {
	devices []string // nil means the Table 3 fleet
	iters   int
	workers int
	// replayEvery samples every k-th cell for the traced science replay.
	replayEvery int
}

var defaultConformance = conformanceWorkload{iters: 20, workers: 2, replayEvery: 4}

func (w conformanceWorkload) platforms() []core.Platform {
	devices := w.devices
	if devices == nil {
		for _, p := range gpu.Profiles() {
			devices = append(devices, p.ShortName)
		}
	}
	out := make([]core.Platform, len(devices))
	for i, d := range devices {
		out[i] = core.Platform{Device: d, Driver: wgsl.DriverFenceDropping}
	}
	return out
}

// tuneWorkload is the tuning study (§5) at a small size. The cold
// variant starts every round with an empty cache and a fresh
// checkpoint; the warm one fills the cache before timing starts and
// runs without a checkpoint. They match
//
//	mcmutants tune -envs 4 -site-iters 10 -pte-iters 2 -parallel 2 -checkpoint F -cache-dir D -out F
//	mcmutants tune -envs 16 -site-iters 2 -pte-iters 1 -parallel 2 -cache-dir D -out F
type tuneWorkload struct {
	cfg     tuning.Config
	workers int
	warm    bool
	// replayEvery samples every k-th record for the traced science replay.
	replayEvery int
}

var (
	tuneCold = tuneWorkload{cfg: tuneConfig(4, 10, 2), workers: 2, replayEvery: 16}
	tuneWarm = tuneWorkload{cfg: tuneConfig(16, 2, 1), workers: 2, warm: true}
)

// tuneConfig builds the config the CLI's tune verb builds from its
// flags; the seed is the run's.
func tuneConfig(envs, siteIters, pteIters int, devices ...string) tuning.Config {
	cfg := tuning.SmallConfig()
	cfg.Environments = envs
	cfg.SITEIterations = siteIters
	cfg.PTEIterations = pteIters
	cfg.Devices = devices
	return cfg
}

// roundResult is one complete campaign as a user runs it: the
// program's set-up, then the entry point until the artifact is
// published.
type roundResult struct {
	setup, run  time.Duration
	cells       int
	failedCells int
	artifact    []byte
	// problem describes a wrong output found while checking the round.
	problem string
	final   sched.Progress
	// executedLaunches counts the kernel launches the round executed.
	executedLaunches float64
}

// rounds runs campaign rounds for the measured duration (at least
// minRounds), then checks every artifact against the seed's pin, or,
// for a seed without one, against the digest of oracle's artifact.
func (b *bench) rounds(ctx context.Context, o *outcome,
	round func(ctx context.Context, dir string) (roundResult, error),
	oracle func() ([]byte, error)) error {
	hits0, miss0 := harness.SharedClassifier().Stats()
	// unchecked holds, per round, the artifact digest and the cells not
	// yet counted as failed.
	type unchecked struct {
		digest string
		cells  int
	}
	var pending []unchecked
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < b.seconds; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("round-%03d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		resetPeakRSS()
		root := b.tr.enter("round")
		rr, err := round(ctx, dir)
		root.end()
		if err != nil {
			return err
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return err
		}
		o.rssPeaks = append(o.rssPeaks, rss)
		if err := b.clean(dir); err != nil {
			return err
		}
		fmt.Fprintf(b.log, "mcbench: %s: round %d: setup %v, run %v, %.1f cells/s, peak RSS %.1f MiB\n",
			b.workload, i, rr.setup, rr.run, float64(rr.cells)/rr.run.Seconds(), rss)
		o.setups = append(o.setups, rr.setup)
		o.latencies = append(o.latencies, rr.setup+rr.run)
		o.cellRates = append(o.cellRates, float64(rr.cells)/rr.run.Seconds())
		o.attempted += rr.cells
		o.failed += rr.failedCells
		u := unchecked{digest: digest(rr.artifact), cells: rr.cells - rr.failedCells}
		if rr.problem != "" {
			o.problems = append(o.problems, fmt.Sprintf("round %d: %s", i, rr.problem))
			o.failed += u.cells
			u.cells = 0
		}
		pending = append(pending, u)
		o.finals = append(o.finals, rr.final)
		o.launches += rr.executedLaunches
	}
	hits1, miss1 := harness.SharedClassifier().Stats()
	o.classHits, o.classLookups = hits1-hits0, hits1-hits0+miss1-miss0
	o.units = len(pending)
	o.launches /= float64(o.units)

	want, err := b.reference(oracle)
	if err != nil {
		return err
	}
	for i, u := range pending {
		o.digests = append(o.digests, u.digest)
		if u.digest != want {
			o.problems = append(o.problems, fmt.Sprintf("round %d: artifact sha256 %s, want %s", i, u.digest, want))
			o.failed += u.cells
		}
	}
	return nil
}

// clean removes a finished round's files and commits the removal to
// the filesystem journal, so that the next round's fsyncs do not pay
// for this round's cleanup.
func (b *bench) clean(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return diskio.OS{}.SyncDir(b.dir)
}

// reference resolves the digest the run's artifacts must match: the
// seed's pin, or else the digest of oracle's artifact.
func (b *bench) reference(oracle func() ([]byte, error)) (string, error) {
	if d, ok := b.pins[strconv.FormatUint(b.seed, 10)]; ok {
		return d, nil
	}
	fmt.Fprintf(b.log, "mcbench: %s: seed %d has no pinned digest; checking against an oracle\n", b.workload, b.seed)
	art, err := oracle()
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	return digest(art), nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// conformance measures the fleet CTS campaign.
func (b *bench) conformance(ctx context.Context, o *outcome, w conformanceWorkload) error {
	o.workers = w.workers
	var last []*core.ConformanceReport
	var suite *mutation.Suite
	round := func(ctx context.Context, dir string) (roundResult, error) {
		var rr roundResult
		if b.tr != nil {
			g := b.tr.child("mutation.generate")
			if _, err := mutation.Generate(); err != nil {
				return rr, err
			}
			g.end()
		}
		ckptDir := filepath.Join(dir, "ckpt")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return rr, err
		}

		t0 := time.Now()
		s := b.tr.child("core.setup")
		study, err := core.NewStudy()
		if err != nil {
			return rr, err
		}
		platforms := w.platforms()
		env, err := core.EnvByName("pte", 16, 32)
		if err != nil {
			return rr, err
		}
		s.end()
		t1 := time.Now()
		opts := core.CampaignOptions{Workers: w.workers, CheckpointPath: filepath.Join(ckptDir, "campaign.ckpt")}
		if b.tr != nil {
			opts.FS = newTracedFS(nil, b.tr, map[string]string{ckptDir: "ckpt"})
			opts.OnProgress = func(p sched.Progress) {
				if p.Final {
					rr.final = p
				}
			}
		}
		c := b.tr.child("campaign")
		reports, err := study.CheckFleetConformanceCtx(ctx, platforms, env, w.iters, b.seed, opts)
		c.end()
		if err != nil {
			return rr, err
		}
		path := filepath.Join(dir, "report.json")
		a := b.tr.child("core.artifact")
		art := &core.CampaignArtifact{Kind: "conformance", Conformance: reports}
		if err := art.WriteAtomic(nil, path); err != nil {
			return rr, err
		}
		a.end()
		t2 := time.Now()

		rr.setup, rr.run = t1.Sub(t0), t2.Sub(t1)
		if rr.artifact, err = os.ReadFile(path); err != nil {
			return rr, err
		}
		for _, rep := range reports {
			for _, f := range rep.Findings {
				rr.cells++
				if f.Error != "" {
					rr.failedCells++
				}
			}
		}
		rr.problem = checkViolations(reports)
		rr.executedLaunches = float64(rr.final.Executed * w.iters)
		last, suite = reports, study.Suite
		return rr, nil
	}
	// The oracle runs without a checkpoint.
	oracle := func() ([]byte, error) {
		study, err := core.NewStudy()
		if err != nil {
			return nil, err
		}
		env, err := core.EnvByName("pte", 16, 32)
		if err != nil {
			return nil, err
		}
		reports, err := study.CheckFleetConformanceCtx(ctx, w.platforms(), env, w.iters, b.seed, core.CampaignOptions{Workers: w.workers})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = (&core.CampaignArtifact{Kind: "conformance", Conformance: reports}).Encode(&buf)
		return buf.Bytes(), err
	}
	if err := b.rounds(ctx, o, round, oracle); err != nil {
		return err
	}
	if b.tr == nil || len(last) == 0 {
		return nil
	}
	env, err := core.EnvByName("pte", 16, 32)
	if err != nil {
		return err
	}
	var cells []replayCell
	for _, rep := range last {
		for _, test := range suite.Conformance {
			cells = append(cells, replayCell{test: test, device: rep.Platform.Device, env: env,
				lower: true, driver: rep.Platform.Driver, iters: w.iters})
		}
	}
	return replay(ctx, b.tr, every(cells, w.replayEvery), b.seed)
}

// checkViolations checks the science of a fence-dropping conformance
// run: the driver erases fences only on the Vulkan lowering, so exactly
// the Vulkan platforms must report violations, each explained by a
// happens-before cycle, and no cell may have failed.
func checkViolations(reports []*core.ConformanceReport) string {
	var bad []string
	for _, rep := range reports {
		prof, _ := gpu.ProfileByName(rep.Platform.Device)
		vulkan := prof.Backend == gpu.Vulkan
		buggy := rep.Buggy()
		if vulkan != (len(buggy) > 0) {
			bad = append(bad, fmt.Sprintf("%s (%v) reports %d violated tests", rep.Platform.Device, prof.Backend, len(buggy)))
		}
		for _, f := range buggy {
			if f.Explanation == "" || strings.HasPrefix(f.Explanation, "unclassifiable") {
				bad = append(bad, fmt.Sprintf("%s %s: violation without an explanation", rep.Platform.Device, f.Test))
			}
		}
		for _, f := range rep.Failed() {
			bad = append(bad, fmt.Sprintf("%s %s: %s", rep.Platform.Device, f.Test, f.Error))
		}
	}
	return strings.Join(bad, "; ")
}

// tune measures the tuning study, cold or warm.
func (b *bench) tune(ctx context.Context, o *outcome, w tuneWorkload) error {
	o.workers = w.workers
	cfg := w.cfg
	cfg.Seed = b.seed
	// plain runs the study without a checkpoint, through cache (nil for
	// none), and returns the dataset's bytes.
	plain := func(cache sched.ResultCache) ([]byte, error) {
		s, err := mutation.Generate()
		if err != nil {
			return nil, err
		}
		ds, err := tuning.RunCampaignCtx(ctx, cfg, s.Mutants, tuning.RunOptions{Workers: w.workers, Cache: cache})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = ds.Save(&buf)
		return buf.Bytes(), err
	}
	oracle := func() ([]byte, error) { return plain(nil) }
	warmCache := filepath.Join(b.dir, "cache")
	if w.warm {
		// Preparation, not measured: one cold run fills the cache. Every
		// warm dataset must be byte-identical to it. A traced run traces
		// the fill on its own, since it is the workload's only cache write.
		var fsys diskio.FS
		if b.tr != nil {
			o.fill = newTracer()
			fsys = newTracedFS(nil, o.fill, map[string]string{warmCache: "cache"})
		}
		rc, err := resultcache.Open(warmCache, resultcache.Options{FS: fsys})
		if err != nil {
			return err
		}
		var cache sched.ResultCache = rc
		if b.tr != nil {
			cache = &tracedCache{inner: rc, t: o.fill}
		}
		cold, err := plain(cache)
		if err != nil {
			return err
		}
		oracle = func() ([]byte, error) { return cold, nil }
	}

	var last *tuning.Dataset
	var suite *mutation.Suite
	round := func(ctx context.Context, dir string) (roundResult, error) {
		var rr roundResult
		ckptDir := filepath.Join(dir, "ckpt")
		cacheDir := filepath.Join(dir, "cache")
		if w.warm {
			cacheDir = warmCache
		}
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return rr, err
		}
		var fsys diskio.FS
		if b.tr != nil {
			fsys = newTracedFS(nil, b.tr, map[string]string{ckptDir: "ckpt", cacheDir: "cache"})
		}

		t0 := time.Now()
		g := b.tr.child("mutation.generate")
		s, err := mutation.Generate()
		if err != nil {
			return rr, err
		}
		g.end()
		oc := b.tr.child("resultcache.open")
		cache, err := resultcache.Open(cacheDir, resultcache.Options{FS: fsys})
		if err != nil {
			return rr, err
		}
		oc.end()
		t1 := time.Now()
		opts := tuning.RunOptions{Workers: w.workers, Cache: cache, FS: fsys}
		if !w.warm {
			opts.CheckpointPath = filepath.Join(ckptDir, "tune.ckpt")
		}
		if b.tr != nil {
			opts.Cache = &tracedCache{inner: cache, t: b.tr}
			opts.OnProgress = func(p sched.Progress) {
				if p.Final {
					rr.final = p
				}
			}
		}
		c := b.tr.child("campaign")
		ds, err := tuning.RunCampaignCtx(ctx, cfg, s.Mutants, opts)
		c.end()
		if err != nil {
			return rr, err
		}
		path := filepath.Join(dir, "dataset.json")
		sv := b.tr.child("tuning.save")
		if err := ds.SaveAtomic(nil, path); err != nil {
			return rr, err
		}
		sv.end()
		t2 := time.Now()

		rr.setup, rr.run = t1.Sub(t0), t2.Sub(t1)
		if rr.artifact, err = os.ReadFile(path); err != nil {
			return rr, err
		}
		rr.cells = len(ds.Records) + len(ds.Dropped)
		rr.failedCells = len(ds.Dropped)
		rr.problem = checkTune(ds, cache.Stats(), w.warm, rr.cells)
		if rr.final.Total > 0 {
			iters := 0
			for _, r := range ds.Records {
				iters += r.Iterations + r.Discarded
			}
			rr.executedLaunches = float64(iters) * float64(rr.final.Executed) / float64(rr.final.Total)
		}
		last, suite = ds, s
		return rr, nil
	}
	if err := b.rounds(ctx, o, round, oracle); err != nil {
		return err
	}
	if b.tr == nil || last == nil || o.launches == 0 {
		return nil
	}
	tests := map[string]*litmus.Test{}
	for _, t := range suite.Mutants {
		tests[t.Name] = t
	}
	var cells []replayCell
	for _, r := range last.Records {
		cells = append(cells, replayCell{test: tests[r.Test], device: r.Device, env: r.Env, iters: r.Iterations})
	}
	return replay(ctx, b.tr, every(cells, w.replayEvery), b.seed)
}

// checkTune checks a tuning round: every cell produced a record, the
// run was neither interrupted nor degraded, and the cache was used as
// the workload intends — all misses and one Put per cell when cold,
// all hits when warm, never a corrupt entry.
func checkTune(ds *tuning.Dataset, st resultcache.Stats, warm bool, cells int) string {
	var bad []string
	if ds.Interrupted || ds.StorageDegraded {
		bad = append(bad, fmt.Sprintf("interrupted=%v storage degraded=%v %s", ds.Interrupted, ds.StorageDegraded, ds.StorageErr))
	}
	if len(ds.Dropped) > 0 {
		bad = append(bad, fmt.Sprintf("%d cells dropped, first: %s", len(ds.Dropped), ds.Dropped[0].Error))
	}
	want := resultcache.Stats{Misses: int64(cells), Puts: int64(cells)}
	if warm {
		want = resultcache.Stats{Hits: int64(cells)}
	}
	if st != want {
		bad = append(bad, fmt.Sprintf("cache stats %+v, want %+v", st, want))
	}
	return strings.Join(bad, "; ")
}
