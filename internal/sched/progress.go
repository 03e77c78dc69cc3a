package sched

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Progress is one structured snapshot of a running campaign and the
// only place the campaign counter set is defined: the scheduler's live
// tracker fills it, the distributed coordinator reports through it,
// multi-campaign consumers fold it with Add, and String renders it as
// the human-readable throughput line. Snapshots are cumulative: every
// counter covers the campaign from its start, so a consumer may drop
// intermediate snapshots and still hold a correct view.
//
// Done is monotonically non-decreasing across the snapshots of one
// campaign. The final snapshot (Final true) carries the settled
// post-campaign verdicts — under a circuit breaker these can differ
// from live counts, because a speculatively-executed cell may be
// quarantined after the fact — plus the per-device Health summary.
type Progress struct {
	// Campaign is the spec name; Total the cell count.
	Campaign string `json:"campaign"`
	Total    int    `json:"total"`
	// Done counts resolved cells: executed (ok or failed), replayed
	// from the checkpoint, or skipped by an open circuit breaker.
	// Interrupted and aborted cells are not done.
	Done int `json:"done"`
	// Executed, Replayed, Failed, Quarantined, Interrupted and Retried
	// mirror the Report counters of the same names.
	Executed    int `json:"executed"`
	Replayed    int `json:"replayed"`
	Failed      int `json:"failed"`
	Quarantined int `json:"quarantined"`
	Interrupted int `json:"interrupted"`
	Retried     int `json:"retried"`
	// Instances accumulates Options.Instances over succeeded cells.
	Instances int `json:"instances"`
	// ElapsedSeconds is host time since the campaign began;
	// CellsPerSec and InstancesPerSec are the throughput over it.
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	InstancesPerSec float64 `json:"instances_per_sec"`
	// DeviceBusy is each device's accumulated cell wall time in
	// seconds — the raw feed behind the utilization part of String.
	DeviceBusy map[string]float64 `json:"device_busy,omitempty"`
	// CacheHits, CacheMisses and CacheCorrupt mirror the Report's
	// result-cache counters: cells served from the cache, consultations
	// that found nothing, and entries that failed verification. They
	// are observability only and never appear in campaign artifacts.
	CacheHits    int `json:"cache_hits,omitempty"`
	CacheMisses  int `json:"cache_misses,omitempty"`
	CacheCorrupt int `json:"cache_corrupt,omitempty"`
	// CacheDegraded is set on the final snapshot when the result cache
	// hit a persistent storage failure and switched to pass-through.
	// Unlike StorageDegraded it never affects exit status or readiness.
	CacheDegraded bool `json:"cache_degraded,omitempty"`
	// Final marks the last snapshot of the campaign, emitted after the
	// verdicts settle and before RunContext returns.
	Final bool `json:"final"`
	// Health is the per-device fleet summary; populated on the final
	// snapshot when the campaign ran with a circuit breaker.
	Health []DeviceHealth `json:"health,omitempty"`
	// StorageDegraded is set on the final snapshot when the checkpoint
	// degraded to in-memory operation (see Report.StorageDegraded).
	StorageDegraded bool `json:"storage_degraded,omitempty"`
}

// DefaultProgressEvery is the OnProgress snapshot cadence when
// Options.ProgressEvery is unset.
const DefaultProgressEvery = time.Second

// Rate is the shared throughput computation for progress surfaces: n
// events over elapsed seconds, and 0 when no time has measurably
// passed. A job finishing entirely from cache or checkpoint replay can
// complete within one clock granule; dividing by a clamped epsilon
// there reports an absurd finite rate (n × 1e9), so zero-elapsed
// yields the only honest answer — no measured throughput.
func Rate(n int, elapsedSeconds float64) float64 {
	if elapsedSeconds <= 0 {
		return 0
	}
	return float64(n) / elapsedSeconds
}

// setElapsed records the host time the snapshot covers and recomputes
// both throughputs over it.
func (p *Progress) setElapsed(seconds float64) {
	p.ElapsedSeconds = seconds
	p.CellsPerSec = Rate(p.Executed, seconds)
	p.InstancesPerSec = Rate(p.Instances, seconds)
}

// FinalProgress is the settled snapshot of a finished campaign: the
// report's post-pass verdicts, the instances its executed cells
// produced, and the throughput over elapsedSeconds of host time. Local
// and distributed campaigns both end their progress streams with it.
func FinalProgress[R any](rep *Report[R], instances int, elapsedSeconds float64) Progress {
	p := Progress{
		Campaign:        rep.Spec.Name,
		Total:           len(rep.Spec.Cells),
		Done:            rep.Executed + rep.Replayed + rep.Quarantined + rep.CacheHits,
		Executed:        rep.Executed,
		Replayed:        rep.Replayed,
		Failed:          rep.Failed,
		Quarantined:     rep.Quarantined,
		Interrupted:     rep.Interrupted,
		Retried:         rep.Retried,
		Instances:       instances,
		CacheHits:       rep.CacheHits,
		CacheMisses:     rep.CacheMisses,
		CacheCorrupt:    rep.CacheCorrupt,
		CacheDegraded:   rep.CacheDegraded,
		Final:           true,
		Health:          rep.Health,
		StorageDegraded: rep.StorageDegraded,
	}
	p.setElapsed(elapsedSeconds)
	return p
}

// LiveProgress is a running snapshot for a campaign whose only live
// view is its resolved cells: done of total, of which replayed came
// from a checkpoint and cacheHits from a result cache, the rest
// executed. The distributed coordinator reports this way until its
// segments are assembled into a Report.
func LiveProgress(campaign string, total, done, replayed, cacheHits int, elapsedSeconds float64) Progress {
	p := Progress{Campaign: campaign, Total: total, Done: done, Replayed: replayed, CacheHits: cacheHits,
		Executed: done - replayed - cacheHits}
	p.setElapsed(elapsedSeconds)
	return p
}

// Add folds q into p, for consumers that report several campaigns as
// one (a multi-device job): counters and elapsed time sum, degraded
// flags OR, per-device busy times merge, health summaries append, and
// both rates are recomputed over the summed time. Campaign, Total and
// Final stay p's — the caller names the folded scope and decides when
// it is final. Add never writes into a map or slice either snapshot
// already holds, so snapshots handed out earlier stay intact.
func (p *Progress) Add(q Progress) {
	p.Done += q.Done
	p.Executed += q.Executed
	p.Replayed += q.Replayed
	p.Failed += q.Failed
	p.Quarantined += q.Quarantined
	p.Interrupted += q.Interrupted
	p.Retried += q.Retried
	p.Instances += q.Instances
	p.CacheHits += q.CacheHits
	p.CacheMisses += q.CacheMisses
	p.CacheCorrupt += q.CacheCorrupt
	p.CacheDegraded = p.CacheDegraded || q.CacheDegraded
	p.StorageDegraded = p.StorageDegraded || q.StorageDegraded
	if len(p.DeviceBusy) == 0 {
		p.DeviceBusy = q.DeviceBusy
	} else if len(q.DeviceBusy) > 0 {
		merged := make(map[string]float64, len(p.DeviceBusy)+len(q.DeviceBusy))
		for d, v := range p.DeviceBusy {
			merged[d] = v
		}
		for d, v := range q.DeviceBusy {
			merged[d] += v
		}
		p.DeviceBusy = merged
	}
	p.Health = append(p.Health[:len(p.Health):len(p.Health)], q.Health...)
	p.setElapsed(p.ElapsedSeconds + q.ElapsedSeconds)
}

// Mark folds the snapshot into one monotone progress mark for stall
// detection. Every counter here advances exactly when a cell resolves
// (executes, replays, quarantines, retries, or is served from cache),
// so a frozen mark means the campaign is not moving — whether the
// wedge is a device, a retry livelock, or a distributed coordinator
// whose workers vanished. Elapsed time and rates are deliberately
// excluded: they advance on every snapshot.
func (p Progress) Mark() uint64 {
	return uint64(p.Done) + uint64(p.Executed) + uint64(p.Replayed) +
		uint64(p.Failed) + uint64(p.Quarantined) + uint64(p.Retried) +
		uint64(p.Instances) + uint64(p.CacheHits) + uint64(p.CacheMisses) +
		uint64(p.CacheCorrupt)
}

// String renders the snapshot as one throughput line: resolved cells,
// the non-zero outcome counters, cells/s and instances/s, the cache
// tally, and each device's share of the fleet's busy time. A Final
// snapshot ends in " done", or " interrupted" when cells were left
// pending.
func (p Progress) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d/%d cells", p.Campaign, p.Done, p.Total)
	if p.Replayed > 0 {
		fmt.Fprintf(&b, " (%d replayed)", p.Replayed)
	}
	if p.Retried > 0 {
		fmt.Fprintf(&b, " %d retried", p.Retried)
	}
	if p.Quarantined > 0 {
		fmt.Fprintf(&b, " %d quarantined", p.Quarantined)
	}
	if p.Interrupted > 0 {
		fmt.Fprintf(&b, " %d interrupted", p.Interrupted)
	}
	if p.Failed > 0 {
		fmt.Fprintf(&b, " %d FAILED", p.Failed)
	}
	fmt.Fprintf(&b, " | %.1f cells/s", p.CellsPerSec)
	if p.Instances > 0 {
		fmt.Fprintf(&b, ", %.0f instances/s", p.InstancesPerSec)
	}
	if p.CacheHits > 0 || p.CacheMisses > 0 || p.CacheCorrupt > 0 {
		fmt.Fprintf(&b, " | cache %d hit %d miss", p.CacheHits, p.CacheMisses)
		if p.CacheCorrupt > 0 {
			fmt.Fprintf(&b, " %d corrupt", p.CacheCorrupt)
		}
	}
	if p.CacheDegraded {
		b.WriteString(" | cache degraded")
	}
	if util := p.utilization(); util != "" {
		fmt.Fprintf(&b, " | %s", util)
	}
	switch {
	case p.Final && p.Interrupted > 0:
		b.WriteString(" interrupted")
	case p.Final:
		b.WriteString(" done")
	}
	return b.String()
}

// utilization renders each device's share of total busy time.
func (p Progress) utilization() string {
	var total float64
	for _, busy := range p.DeviceBusy {
		total += busy
	}
	if total <= 0 {
		return ""
	}
	devs := make([]string, 0, len(p.DeviceBusy))
	for d := range p.DeviceBusy {
		devs = append(devs, d)
	}
	sort.Strings(devs)
	parts := make([]string, 0, len(devs))
	for _, d := range devs {
		parts = append(parts, fmt.Sprintf("%s %.0f%%", d, 100*p.DeviceBusy[d]/total))
	}
	return "util " + strings.Join(parts, " ")
}
