// Package guard is the campaign service's supervision and resource
// governance layer: per-job execution budgets, a progress-stall
// watchdog, and a memory-watermark watcher driving overload brownout.
//
// The package holds pure policy machinery — no goroutines of its own
// beyond what callers choose to run, no HTTP, no storage. The serve
// subsystem wires it into the job lifecycle: budgets are validated at
// admission and enforced through the existing context hierarchy, the
// watchdog observes the serialized per-job Progress snapshot stream,
// and the memory watcher's levels gate queue drain and submission.
//
// Every decision is a function of an injected clock.Clock (or an
// injected memory reader), so tests reproduce each transition
// deterministically with clock.Fake — no wall-clock sleeps anywhere.
package guard
