package main

import (
	"sort"
	"time"

	"repro/internal/sched"
)

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// outcome is what a workload's run measured.
type outcome struct {
	workload string
	// attempted and failed count operations: cells on the campaign
	// workloads, jobs on serve. A wrong artifact fails every operation
	// that produced it.
	attempted, failed int
	// problems describes every wrong output.
	problems []string
	// digests holds the SHA-256 of every artifact, in round order (job
	// order on serve).
	digests []string

	// setups holds each set-up of the program: one per campaign round,
	// one per server boot.
	setups []time.Duration
	// latencies holds each job's latency: a whole campaign round
	// (set-up included) on the campaign workloads, Submit until the
	// report bytes are in hand on serve.
	latencies []time.Duration
	// cellRates holds each campaign round's cells per second.
	cellRates []float64
	// window, okJobs and okCells give serve's throughput: verified jobs
	// and their cells over the time from the first Submit to the last
	// report in hand.
	window          time.Duration
	okJobs, okCells int
	// rssPeaks holds the resident high-water mark of each campaign
	// round, or of each second of serve's window, in MiB.
	rssPeaks []float64

	// Traced runs only. units is the number of campaign rounds or serve
	// jobs that per-unit counts are divided by; finals holds each one's
	// final scheduler snapshot; workers is the scheduler pool size.
	units    int
	finals   []sched.Progress
	workers  int
	launches float64 // kernel launches executed per unit
	// classHits and classLookups are the shared outcome classifier's
	// counters over the measured rounds.
	classHits, classLookups int64
	// fill traces the cold run that fills tune-warm's cache.
	fill *tracer

	metrics []metric
}

// endToEnd derives the metrics a user sees.
func endToEnd(o *outcome) []metric {
	lat := seconds(o.latencies)
	cellsPerS, jobsPerS := median(o.cellRates), 1/median(lat)
	if o.workload == "serve" {
		cellsPerS = float64(o.okCells) / o.window.Seconds()
		jobsPerS = float64(o.okJobs) / o.window.Seconds()
	}
	return []metric{
		{"cells_per_s", "cells/s", cellsPerS},
		{"setup_s", "s", median(seconds(o.setups))},
		{"peak_rss_mb", "MiB", median(o.rssPeaks)},
		{"ok_frac", "ratio", float64(o.attempted-o.failed) / float64(o.attempted)},
		{"jobs_per_s", "jobs/s", jobsPerS},
		{"job_p50_s", "s", quantile(lat, 0.5)},
		{"job_p90_s", "s", quantile(lat, 0.9)},
	}
}

// perLayer derives the per-layer metrics of a traced run from its
// spans, counters and scheduler snapshots. Times are means per
// operation; counts are per campaign round (per job on serve).
func perLayer(o *outcome, t *tracer) []metric {
	spans, counts := t.summary()
	units := float64(o.units)
	if units == 0 {
		units = 1
	}
	perUnit := func(v int64) float64 { return float64(v) / units }
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	launch := spans["gpu.launch"]
	nsPerInstance := 0.0
	if inst := ratio(counts["replay.instances"], counts["replay.iterations"]); inst > 0 {
		nsPerInstance = launch.meanMS() * 1e6 / inst
	}
	cell := spans["harness.cell"]
	selfMS := 0.0
	if cell.n > 0 {
		self := cell.total - spans["harness.kernelgen"].total - spans["wgsl.lower"].total - launch.total
		selfMS = self.Seconds() * 1e3 / float64(cell.n)
	}

	var busyFrac, overheadMS float64
	var retries int64
	for _, p := range o.finals {
		busy := 0.0
		for _, s := range p.DeviceBusy {
			busy += s
		}
		capacity := p.ElapsedSeconds * float64(o.workers)
		if capacity > 0 {
			busyFrac += busy / capacity / float64(len(o.finals))
		}
		if p.Done > 0 {
			overheadMS += (capacity - busy) * 1e3 / float64(p.Done) / float64(len(o.finals))
		}
		retries += int64(p.Retried)
	}

	// Where a cold fill prepared the cache, the cache's write side ran
	// only there: one campaign.
	writes, written, writeUnits := spans, counts, units
	if o.fill != nil {
		writes, written = o.fill.summary()
		writeUnits = 1
	}

	cellsPerS := median(o.cellRates)
	if o.workload == "serve" && o.window > 0 {
		cellsPerS = float64(o.okCells) / o.window.Seconds()
	}
	var nspans int64
	for _, a := range spans {
		nspans += a.n
	}

	return []metric{
		{"gpu.launch_ms", "ms", launch.meanMS()},
		{"gpu.launches", "count", o.launches},
		{"gpu.ns_per_instance", "ns", nsPerInstance},
		{"wgsl.lower_ms", "ms", spans["wgsl.lower"].meanMS()},
		{"harness.kernelgen_ms", "ms", spans["harness.kernelgen"].meanMS()},
		{"harness.cell_ms", "ms", cell.meanMS()},
		{"harness.self_ms", "ms", selfMS},
		{"harness.classify_hit_ratio", "ratio", ratio(o.classHits, o.classLookups)},
		{"sched.busy_frac", "ratio", busyFrac},
		{"sched.overhead_ms_per_cell", "ms", overheadMS},
		{"sched.retries", "count", perUnit(retries)},
		{"sched.ckpt_records", "count", perUnit(counts["ckpt.records"])},
		{"sched.ckpt_bytes", "bytes", perUnit(counts["ckpt.bytes_written"])},
		{"sched.ckpt_fsyncs", "count", perUnit(spans["ckpt.fsync"].n)},
		{"sched.ckpt_fsync_ms", "ms", spans["ckpt.fsync"].meanMS()},
		{"resultcache.put_ms", "ms", writes["resultcache.put"].meanMS()},
		{"resultcache.fsyncs", "count", float64(writes["cache.fsync"].n) / writeUnits},
		{"resultcache.bytes_written", "bytes", float64(written["cache.bytes_written"]) / writeUnits},
		{"resultcache.get_ms", "ms", spans["resultcache.get"].meanMS()},
		{"resultcache.bytes_read", "bytes", perUnit(counts["cache.bytes_read"])},
		{"resultcache.hit_ratio", "ratio", ratio(counts["resultcache.hits"], counts["resultcache.lookups"])},
		{"resultcache.corrupt", "count", float64(counts["resultcache.corrupt"])},
		{"resultcache.open_ms", "ms", spans["resultcache.open"].meanMS()},
		{"mutation.generate_ms", "ms", spans["mutation.generate"].meanMS()},
		{"core.setup_ms", "ms", spans["core.setup"].meanMS()},
		{"core.artifact_ms", "ms", spans["core.artifact"].meanMS()},
		{"tuning.save_ms", "ms", spans["tuning.save"].meanMS()},
		{"serve.submit_ms", "ms", spans["serve.submit"].meanMS()},
		{"serve.queue_ms", "ms", spans["serve.queue"].meanMS()},
		{"serve.exec_ms", "ms", spans["serve.exec"].meanMS()},
		{"serve.report_ms", "ms", spans["serve.report"].meanMS()},
		{"serve.events_per_job", "count", perUnit(counts["serve.events"])},
		{"serve.store_fsyncs", "count", perUnit(spans["store.fsync"].n)},
		{"serve.store_fsync_ms", "ms", spans["store.fsync"].meanMS()},
		{"serve.boot_ms", "ms", spans["serve.boot"].meanMS()},
		{"trace.cells_per_s", "cells/s", cellsPerS},
		{"trace.spans", "count", float64(nspans)},
	}
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks, as
// numpy's default does; it is 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
