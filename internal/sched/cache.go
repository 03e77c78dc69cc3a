package sched

// ResultCache is the seam to the cross-campaign result cache
// (internal/resultcache implements it). The scheduler consults it
// before executing a cell and publishes after a cell validates;
// everything else — verification, quarantine, atomic publication,
// eviction — lives behind this interface.
//
// The contract is that implementations never fail the campaign: Get
// answers miss for anything it cannot verifiably serve, Put is
// best-effort, and a storage failure surfaces only through Degraded —
// reported, never fatal. Keys are the scheduler's cell digests (see
// cellDigests); payloads are the cell values' JSON encodings.
type ResultCache interface {
	// Get returns the cached payload for key. hit reports a verified
	// entry; corrupt reports that an entry existed but failed
	// verification and was discarded (the caller recomputes and counts
	// it). hit and corrupt are never both true.
	Get(key string) (payload []byte, hit bool, corrupt bool)
	// Put publishes payload (a JSON document) under key, best-effort.
	Put(key string, payload []byte)
	// Degraded returns the sticky storage error that switched the
	// cache to pass-through, or nil while it is healthy.
	Degraded() error
}
