package dist

import (
	"context"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sched"
)

// leaseCoord builds a coordinator driven entirely by direct calls
// under a fake clock — no goroutines, no timers.
func leaseCoord(t *testing.T, spec sched.Spec, opts CoordinatorOptions) (*Coordinator, *clock.Fake) {
	t.Helper()
	clk := newFakeClock()
	opts.Clock = clk
	c, err := NewCoordinator("lease", spec, nil, nil, opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c, clk
}

// runRange executes cells by index against the shared deterministic
// exec and returns their segments — a worker's compute step without a
// worker.
func runRange(t *testing.T, spec sched.Spec, cells []int) []sched.Segment {
	t.Helper()
	sc := make([]sched.Cell, len(cells))
	for i, ci := range cells {
		sc[i] = spec.Cells[ci]
	}
	run := SchedRunner(spec, distExecs, SchedRunnerOptions{Retries: testRetries})
	segs, err := run(context.Background(), sc, nil)
	if err != nil {
		t.Fatalf("runRange: %v", err)
	}
	return segs
}

// TestLeaseExpiryBounded is the acceptance property: a partitioned
// worker's range is re-issued at its deadline — within one lease TTL
// of the last renewal, never before it — and the zombie's late
// duplicate delivery is discarded idempotently with the final report
// unchanged.
func TestLeaseExpiryBounded(t *testing.T) {
	const ttl = 10 * time.Second
	spec := distSpec(8)
	want := baselineReport(t, spec)
	coord, clk := leaseCoord(t, spec, CoordinatorOptions{LeaseTTL: ttl, RangeCells: 4})

	// Worker A leases the first range, B the second; B finishes.
	la := coord.Acquire(AcquireRequest{Worker: "A"})
	if la.State != StateLease || len(la.Lease.Cells) != 4 {
		t.Fatalf("A acquire = %+v", la)
	}
	lb := coord.Acquire(AcquireRequest{Worker: "B"})
	if lb.State != StateLease {
		t.Fatalf("B acquire = %+v", lb)
	}
	if coord.Deliver(DeliverRequest{Worker: "B", Lease: lb.Lease.ID, Segments: runRange(t, spec, lb.Lease.Cells)}).State != DeliverOK {
		t.Fatal("B delivery rejected")
	}

	// A renews just inside the deadline; the renewal restarts the TTL.
	clk.Advance(ttl - time.Second)
	if !coord.Renew(RenewRequest{Worker: "A", Lease: la.Lease.ID}).OK {
		t.Fatal("in-deadline renew refused")
	}
	renewedAt := clk.Now()

	// A now partitions (no more renewals). One instant before the
	// deadline its range must NOT be re-issued…
	clk.Advance(ttl - time.Millisecond)
	if resp := coord.Acquire(AcquireRequest{Worker: "B"}); resp.State != StateWait {
		t.Fatalf("range re-issued before the lease deadline: %+v", resp)
	}
	// …and at the deadline it must be: the bound is exactly one TTL
	// after the last renewal.
	clk.Advance(time.Millisecond)
	resp := coord.Acquire(AcquireRequest{Worker: "B"})
	if resp.State != StateLease {
		t.Fatalf("range not re-issued at the lease deadline: %+v", resp)
	}
	if got := clk.Now().Sub(renewedAt); got != ttl {
		t.Fatalf("re-issue observed %v after last renewal, want exactly %v", got, ttl)
	}
	if len(resp.Lease.Cells) != 4 || resp.Lease.Cells[0] != la.Lease.Cells[0] {
		t.Fatalf("re-issued lease = %+v, want A's range %v", resp.Lease, la.Lease.Cells)
	}

	// The zombie keeps computing and renewing: too late.
	if coord.Renew(RenewRequest{Worker: "A", Lease: la.Lease.ID}).OK {
		t.Fatal("expired lease renewed")
	}

	// B completes the re-issued range first; then A's zombie delivery
	// arrives. Every zombie segment is a duplicate, the lease is
	// reported lost, and the report is unchanged.
	segs := runRange(t, spec, resp.Lease.Cells)
	if coord.Deliver(DeliverRequest{Worker: "B", Lease: resp.Lease.ID, Segments: segs}).State != DeliverOK {
		t.Fatal("B redelivery rejected")
	}
	zr := coord.Deliver(DeliverRequest{Worker: "A", Lease: la.Lease.ID, Segments: runRange(t, spec, la.Lease.Cells)})
	if zr.State != DeliverLost {
		t.Fatalf("zombie delivery state = %q, want %q", zr.State, DeliverLost)
	}
	if zr.Accepted != 0 || zr.Duplicates != 4 {
		t.Fatalf("zombie delivery accepted=%d duplicates=%d, want 0/4", zr.Accepted, zr.Duplicates)
	}

	st := coord.Status()
	if !st.Complete || st.Duplicates != 4 || st.Reissues != 4 {
		t.Fatalf("status = %+v", st)
	}
	rep, err := sched.AssembleReport[distVal](spec, coord.Segments(), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	requireSameReport(t, "zombie", want, rep)
}

// TestZombieDeliveryBeforeReissueIsAccepted: a zombie whose lease
// expired but whose cells are still unresolved delivers useful work —
// the segments are identical to a re-execution's, so the coordinator
// takes them and the re-issued range shrinks to nothing on delivery.
func TestZombieDeliveryBeforeReissueIsAccepted(t *testing.T) {
	const ttl = 10 * time.Second
	spec := distSpec(4)
	want := baselineReport(t, spec)
	coord, clk := leaseCoord(t, spec, CoordinatorOptions{LeaseTTL: ttl, RangeCells: 4})

	la := coord.Acquire(AcquireRequest{Worker: "A"})
	clk.Advance(ttl)
	// The lease is expired (sweep runs on the zombie's own delivery),
	// but nothing has been re-issued yet: the segments are novel.
	zr := coord.Deliver(DeliverRequest{Worker: "A", Lease: la.Lease.ID, Segments: runRange(t, spec, la.Lease.Cells)})
	if zr.State != DeliverLost || zr.Accepted != 4 || zr.Duplicates != 0 {
		t.Fatalf("zombie delivery = %+v, want lost with 4 accepted", zr)
	}
	if !coord.Status().Complete {
		t.Fatalf("status = %+v", coord.Status())
	}
	rep, err := sched.AssembleReport[distVal](spec, coord.Segments(), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	requireSameReport(t, "zombie-novel", want, rep)
}

// TestWorkerQuarantine: a worker whose leases repeatedly expire walks
// the breaker cycle — threshold expiries open it, cooldown acquires
// are refused, probation decides.
func TestWorkerQuarantine(t *testing.T) {
	const ttl = 10 * time.Second
	spec := distSpec(30)
	coord, clk := leaseCoord(t, spec, CoordinatorOptions{
		LeaseTTL: ttl, RangeCells: 2, MaxReissues: 1000,
		Breaker: sched.BreakerOptions{Threshold: 3, Cooldown: 2},
	})

	// Three granted-then-expired leases open the breaker.
	for i := 0; i < 3; i++ {
		resp := coord.Acquire(AcquireRequest{Worker: "bad"})
		if resp.State != StateLease {
			t.Fatalf("acquire %d = %+v", i, resp)
		}
		clk.Advance(ttl)
		coord.Sweep()
	}
	if coord.Status().Quarantined != 1 {
		t.Fatalf("status = %+v, want 1 quarantined worker", coord.Status())
	}
	// Cooldown: two refusals, each telling the worker to back off a
	// full TTL.
	for i := 0; i < 2; i++ {
		resp := coord.Acquire(AcquireRequest{Worker: "bad"})
		if resp.State != StateWait || resp.RetryAfterMS != ttl.Milliseconds() {
			t.Fatalf("cooldown acquire %d = %+v", i, resp)
		}
	}
	// Probation: a lease again; completing it closes the breaker.
	resp := coord.Acquire(AcquireRequest{Worker: "bad"})
	if resp.State != StateLease {
		t.Fatalf("probation acquire = %+v", resp)
	}
	if coord.Deliver(DeliverRequest{Worker: "bad", Lease: resp.Lease.ID, Segments: runRange(t, spec, resp.Lease.Cells)}).State != DeliverOK {
		t.Fatal("probation delivery rejected")
	}
	if q := coord.Status().Quarantined; q != 0 {
		t.Fatalf("worker still quarantined after probation success")
	}
	// Meanwhile a healthy worker was never impeded.
	if resp := coord.Acquire(AcquireRequest{Worker: "good"}); resp.State != StateLease {
		t.Fatalf("healthy worker refused: %+v", resp)
	}
}

// TestReissueExhaustionDegrades: cells that keep getting leased and
// lost are eventually marked lost — the campaign completes degraded
// (failures in the report) instead of hanging.
func TestReissueExhaustionDegrades(t *testing.T) {
	const ttl = 10 * time.Second
	spec := distSpec(4)
	coord, clk := leaseCoord(t, spec, CoordinatorOptions{
		LeaseTTL: ttl, RangeCells: 4, MaxReissues: 2,
		Breaker: sched.BreakerOptions{Threshold: 100, Cooldown: 1},
	})
	for i := 0; ; i++ {
		if i > 10 {
			t.Fatal("campaign did not complete")
		}
		resp := coord.Acquire(AcquireRequest{Worker: "flaky"})
		if resp.State == StateDone {
			break
		}
		if resp.State != StateLease {
			t.Fatalf("acquire %d = %+v", i, resp)
		}
		clk.Advance(ttl)
	}
	st := coord.Status()
	if !st.Complete || st.Lost != 4 {
		t.Fatalf("status = %+v, want complete with 4 lost", st)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	rep, err := sched.AssembleReport[distVal](spec, coord.Segments(), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	if rep.Failed != 4 || rep.Interrupted != 0 {
		t.Fatalf("report failed=%d interrupted=%d, want 4/0", rep.Failed, rep.Interrupted)
	}
}

// TestStallDegrades: with a stall bound, a coordinator no worker ever
// contacts completes degraded instead of waiting forever.
func TestStallDegrades(t *testing.T) {
	spec := distSpec(5)
	coord, clk := leaseCoord(t, spec, CoordinatorOptions{
		LeaseTTL: time.Second, StallTimeout: 30 * time.Second,
	})
	clk.Advance(29 * time.Second)
	coord.Sweep()
	if st := coord.Status(); st.Stalled || st.Complete {
		t.Fatalf("stalled early: %+v", st)
	}
	clk.Advance(time.Second)
	coord.Sweep()
	st := coord.Status()
	if !st.Stalled || !st.Complete || st.Lost != 5 {
		t.Fatalf("status = %+v, want stalled+complete with 5 lost", st)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}
