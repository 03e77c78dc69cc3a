package dist

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

// chaosKind builds one FaultPlan per fault family, keyed by the RPC
// ordinal the fault fires at.
type chaosKind struct {
	name string
	plan func(n int, clk *clock.Fake) FaultPlan
}

func chaosKinds() []chaosKind {
	return []chaosKind{
		{"drop", func(n int, _ *clock.Fake) FaultPlan {
			return FaultPlan{DropAt: map[int]bool{n: true}}
		}},
		{"lose-reply", func(n int, _ *clock.Fake) FaultPlan {
			return FaultPlan{LoseReplyAt: map[int]bool{n: true}}
		}},
		{"duplicate", func(n int, _ *clock.Fake) FaultPlan {
			return FaultPlan{DuplicateAt: map[int]bool{n: true}}
		}},
		{"delay", func(n int, clk *clock.Fake) FaultPlan {
			// The RPC succeeds but the worker stalls long past the
			// lease TTL before seeing the response — the coordinator
			// re-issues work the stalled worker still holds.
			return FaultPlan{DelayAt: map[int]bool{n: true}, Delay: func() { clk.Advance(5 * time.Second) }}
		}},
		{"crash", func(n int, _ *clock.Fake) FaultPlan {
			return FaultPlan{CrashAt: n}
		}},
		{"partition", func(n int, _ *clock.Fake) FaultPlan {
			return FaultPlan{PartitionFrom: n}
		}},
	}
}

// TestChaosFaultAtEveryRPCBoundary is the acceptance property: for
// shard counts 1, 2 and 4 (healthy workers, plus one chaos worker
// subjected to the fault), inject every fault family at every RPC
// ordinal the chaos worker reaches, and require the merged report to
// be identical to the uninterrupted single-process oracle every
// single time.
func TestChaosFaultAtEveryRPCBoundary(t *testing.T) {
	spec := distSpec(15)
	want := baselineReport(t, spec)

	for _, shards := range []int{1, 2, 4} {
		// Learn how many RPCs the chaos worker makes on a clean run,
		// to bound the boundary enumeration.
		var probe *FaultTransport
		got, _ := distRun{
			spec:    spec,
			workers: shards + 1,
			// Waiting workers advance the shared fake clock, so a busy
			// worker's lease can expire many times while the goroutine
			// scheduler starves it; a generous re-issue budget keeps the
			// byte-identity property about merging, not about lost-cell
			// policy (covered deterministically in lease_test.go).
			maxReissues: 10_000,
			mkTransport: func(i int, inner Transport) Transport {
				if i != 0 {
					return inner
				}
				probe = NewFaultTransport(inner, FaultPlan{})
				return probe
			},
		}.run(t)
		requireSameReport(t, fmt.Sprintf("shards=%d clean", shards), want, got)
		maxOps := probe.Ops() + 2

		for _, kind := range chaosKinds() {
			for n := 1; n <= maxOps; n++ {
				label := fmt.Sprintf("shards=%d fault=%s rpc=%d", shards, kind.name, n)
				var clk *clock.Fake
				run := distRun{
					spec:        spec,
					workers:     shards + 1,
					maxReissues: 10_000,
					mkTransport: func(i int, inner Transport) Transport {
						if i != 0 {
							return inner
						}
						return NewFaultTransport(inner, kind.plan(n, clk))
					},
				}
				// The fault plan may need the run's clock; distRun owns
				// it, so thread it through a hook.
				got, st := run.runWithClock(t, func(c *clock.Fake) { clk = c })
				requireSameReport(t, label, want, got)
				if !st.Complete {
					t.Fatalf("%s: campaign did not complete: %+v", label, st)
				}
			}
		}
	}
}
