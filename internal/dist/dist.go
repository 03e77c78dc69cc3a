// Package dist shards a campaign across worker processes without
// giving up the repository's core invariant: the merged report is
// byte-identical to a single-process run.
//
// A Coordinator owns one campaign. It hands out leased ranges of the
// spec's cell grid; workers (the `mcmutants work` verb, or any
// in-process Transport client) execute their range with the same
// split-seed RNG streams a local run would use and deliver the
// resolved cells back as checkpoint-shaped segments
// (sched.Segment). Because every cell's result is a pure function of
// (seed, campaign, cell key, attempt), re-executing a cell after its
// lease expired — or receiving it twice from a zombie worker — cannot
// change the merged report: duplicate deliveries are discarded by
// cell identity, first-wins, and both copies are identical anyway.
//
// RunCampaign is the one campaign runner every campaign kind runs on:
// locally through the scheduler, or, with CampaignOptions.Dist set,
// through a Coordinator. SchedRunner is its worker half.
//
// Robustness model:
//
//   - Leases carry deadlines. Workers renew at cell boundaries with
//     split-seed jittered thresholds (sched.Spec.RetryBackoff); a
//     worker that dies or partitions stops renewing, its lease
//     expires, and the unresolved cells are re-issued to the next
//     Acquire.
//   - A cell re-issued more than MaxReissues times is marked lost: a
//     synthetic error segment completes it so the campaign degrades
//     (exit 2, failure recorded per cell) instead of hanging.
//   - Workers whose leases repeatedly expire or fail are quarantined
//     by a per-worker sched.Breaker — the device-breaker taxonomy
//     lifted to whole workers.
//   - With StallTimeout set, a coordinator that hears from no worker
//     at all for that long marks every unresolved cell lost and
//     completes degraded rather than waiting forever.
//
// The Transport seam mirrors internal/diskio.FaultFS: HTTPTransport
// is the real implementation, Hub.LocalTransport the in-process one,
// and FaultTransport injects deterministic faults (dropped calls,
// lost replies, duplicated deliveries, crash-at-Nth-RPC, persistent
// partition) keyed by RPC ordinal so chaos tests can kill every RPC
// boundary and assert byte-identical reports.
package dist

import (
	"encoding/json"
	"errors"

	"repro/internal/sched"
)

// Acquire response states.
const (
	// StateLease: the response carries a leased cell range.
	StateLease = "lease"
	// StateWait: no range is available right now (all leased, or the
	// worker is quarantined); retry after RetryAfterMS.
	StateWait = "wait"
	// StateDone: the campaign is complete; the worker can move on.
	StateDone = "done"
)

// Deliver response states.
const (
	// DeliverOK: the delivery resolved a live lease.
	DeliverOK = "ok"
	// DeliverLost: the lease had already expired (or was never this
	// worker's); any novel segments were still merged idempotently.
	DeliverLost = "lost"
)

// ErrWorkerCrashed is the terminal error a fault-injecting transport
// returns when the simulated worker process has died: no RPC — not
// even a best-effort final delivery — reaches the coordinator again.
var ErrWorkerCrashed = errors.New("dist: worker crashed (simulated)")

// ErrUnknownCampaign is returned by hub lookups and transports when
// the named campaign is not (or no longer) registered.
var ErrUnknownCampaign = errors.New("dist: unknown campaign")

// WorkInfo describes a registered campaign to prospective workers.
type WorkInfo struct {
	// Name is the hub registration name (URL path component).
	Name string `json:"name"`
	// Campaign and Seed echo the spec, Manifest its cell-grid hash:
	// workers verify their locally-rebuilt spec manifest matches
	// before accepting leases, so a version- or flag-skewed worker
	// refuses work instead of corrupting the merge.
	Campaign string `json:"campaign"`
	Seed     uint64 `json:"seed"`
	Manifest string `json:"manifest"`
	// Cells is the total cell count.
	Cells int `json:"cells"`
	// LeaseTTLMS is the lease deadline workers must renew within.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// Descriptor is the opaque work description the submitting side
	// registered (core.WorkSpec JSON): everything a worker needs to
	// rebuild the spec and executor locally.
	Descriptor json.RawMessage `json:"descriptor,omitempty"`
	// Done reports campaign completion.
	Done bool `json:"done"`
}

// Lease is a leased range: spec indexes into the campaign's cell
// list, valid until the deadline unless renewed.
type Lease struct {
	ID    string `json:"id"`
	Cells []int  `json:"cells"`
	TTLMS int64  `json:"ttl_ms"`
}

// AcquireRequest asks for a range on behalf of a worker.
type AcquireRequest struct {
	Worker string `json:"worker"`
}

// AcquireResponse carries a lease, a wait hint, or completion.
type AcquireResponse struct {
	State        string `json:"state"`
	Lease        *Lease `json:"lease,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// RenewRequest extends a lease's deadline.
type RenewRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
}

// RenewResponse reports whether the lease is still this worker's. A
// false OK means the lease expired and was (or will be) re-issued:
// the worker must stop executing the range.
type RenewResponse struct {
	OK bool `json:"ok"`
}

// DeliverRequest returns a range's resolved cells.
type DeliverRequest struct {
	Worker   string          `json:"worker"`
	Lease    string          `json:"lease"`
	Segments []sched.Segment `json:"segments"`
}

// DeliverResponse acknowledges a delivery. Accepted counts segments
// merged for the first time, Duplicates those discarded by cell
// identity — a zombie worker's entire delivery lands as duplicates.
type DeliverResponse struct {
	State      string `json:"state"`
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
}

// Status is a coordinator progress snapshot.
type Status struct {
	// Name is the hub registration name.
	Name string
	// Total and Done count cells; Done includes replayed seeds and
	// lost (synthesized-failure) cells — every cell no longer owed.
	Total int
	Done  int
	// Replayed counts cells seeded from a resumed checkpoint.
	Replayed int
	// CacheHits counts accepted segments the workers served from their
	// local result caches — the fleet-wide warm-cache savings.
	CacheHits int
	// Lost counts cells completed by synthetic failure after re-issue
	// exhaustion or a stall.
	Lost int
	// Duplicates counts segment deliveries discarded by cell identity.
	Duplicates int
	// Reissues counts lease-expiry re-queues of individual cells.
	Reissues int
	// ActiveLeases and Workers describe the live fleet; Quarantined
	// counts workers whose breaker is currently open.
	ActiveLeases int
	Workers      int
	Quarantined  int
	// Stalled reports that the stall timeout fired.
	Stalled bool
	// Complete reports that every cell is resolved.
	Complete bool
}
