package gpu

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// Properties of the executor's per-launch bookkeeping: the po-loc links
// decoded into the step table, the address-indexed decode scratch that
// builds them, and the live-CU bitmap. Each must hold on warm devices,
// where every table carries the previous launch's contents.

// randomSpec builds wgs×wgSize random programs over memWords words:
// some empty, most reusing a few addresses, with fences and barriers
// whose Addr lies past MemWords (legal, since Validate bounds Addr for
// memory ops only).
func randomSpec(r *xrand.Rand, memWords, wgs, wgSize int) LaunchSpec {
	memOps := [...]Op{OpLoad, OpStore, OpExchange, OpStressLoad, OpStressStore}
	hot := min(memWords, 1+r.Intn(6))
	progs := make([]Program, wgs*wgSize)
	for tid := range progs {
		n := r.Intn(24)
		if r.Intn(5) == 0 {
			n = 0
		}
		var p Program
		for i := 0; i < n; i++ {
			switch k := r.Intn(12); {
			case k == 0:
				p = append(p, Instr{Op: OpFence, Addr: uint32(memWords + r.Intn(1000))})
			case k == 1:
				p = append(p, Instr{Op: OpBarrier, Addr: uint32(memWords + r.Intn(1000))})
			default:
				addr := r.Intn(hot)
				if r.Intn(4) == 0 {
					addr = r.Intn(memWords)
				}
				p = append(p, Instr{Op: memOps[r.Intn(len(memOps))], Addr: uint32(addr),
					Imm: r.Uint32(), Reg: uint16(r.Intn(4))})
			}
		}
		progs[tid] = p
	}
	return LaunchSpec{WorkgroupSize: wgSize, Workgroups: wgs, MemWords: memWords, Programs: progs}
}

// launchShapes shrink and grow MemWords and the thread count from one
// launch to the next.
var launchShapes = []struct{ memWords, wgs, wgSize int }{
	{64, 8, 16}, {3, 2, 4}, {200, 12, 32}, {16, 1, 1}, {64, 8, 16},
	{1, 3, 8}, {128, 20, 8}, {5, 4, 64}, {300, 2, 2}, {32, 16, 4},
}

// TestPredMatchesBackwardScan: every decoded step's pred is the index
// of the same thread's latest earlier memory step at the same address,
// or -1, exactly as a brute-force backward scan finds it. One device
// decodes every spec in turn, so stale decode scratch would show.
func TestPredMatchesBackwardScan(t *testing.T) {
	d := dev(t, amdProfile(), Bugs{})
	r := xrand.New(81)
	for round := 0; round < 4; round++ {
		for i, sh := range launchShapes {
			spec := randomSpec(r, sh.memWords, sh.wgs, sh.wgSize)
			e, err := d.getExec(spec, xrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			for tid := range spec.Programs {
				for ip := e.ipStart[tid]; ip < e.ipEnd[tid]; ip++ {
					want := int32(-1)
					if e.code[ip].flags&stepMem != 0 {
						for j := ip - 1; j >= e.ipStart[tid]; j-- {
							if e.code[j].flags&stepMem != 0 && e.code[j].addr == e.code[ip].addr {
								want = j
								break
							}
						}
					}
					if got := e.code[ip].pred; got != want {
						t.Fatalf("round %d launch %d thread %d step %d (%v @%d): pred %d, backward scan %d",
							round, i, tid, ip-e.ipStart[tid], e.code[ip].op, e.code[ip].addr, got, want)
					}
				}
			}
		}
	}
}

// TestWarmLaunchSequenceMatchesCold: launches of shrinking and growing
// shapes on one device give the same results and RNG positions as the
// same launches on fresh devices, with the coherence defect on so that
// po-loc state steers draws.
func TestWarmLaunchSequenceMatchesCold(t *testing.T) {
	bugs := Bugs{CoherenceRR: true, CoherenceRRProb: 0.5, CoherenceRRPressure: 1}
	for _, p := range []Profile{amdProfile(), intelProfile(), serialAMD()} {
		warm := dev(t, p, bugs)
		r := xrand.New(82)
		for i, sh := range launchShapes {
			spec := randomSpec(r, sh.memWords, sh.wgs, sh.wgSize)
			seed := uint64(100 + i)
			cold := fingerprint(t, dev(t, p, bugs), spec, seed)
			if got := fingerprint(t, warm, spec, seed); got != cold {
				t.Fatalf("%s/mo%d launch %d (%d words, %d threads): warm %s != cold %s",
					p.ShortName, p.MaxOutstanding, i, sh.memWords, spec.Threads(), got, cold)
			}
		}
	}
}

// checkCULive reports the first CU whose cuLive bit disagrees with
// cuRunnable, or a bit set past the last CU.
func checkCULive(e *exec) error {
	for c, n := range e.cuRunnable {
		if bit := e.cuLive[c>>6]>>(uint(c)&63)&1 == 1; bit != (n > 0) {
			return fmt.Errorf("CU %d: cuLive bit %v, cuRunnable %d", c, bit, n)
		}
	}
	if n := len(e.cuRunnable); n&63 != 0 && e.cuLive[n>>6]>>(uint(n)&63) != 0 {
		return fmt.Errorf("cuLive has bits past CU %d", n-1)
	}
	return nil
}

// TestCULiveTracksRunnable: right after reset and after every finished
// run of every golden spec, on every profile, bit c of cuLive is set
// iff cuRunnable[c] > 0.
func TestCULiveTracksRunnable(t *testing.T) {
	profiles := append(AllProfiles(), serialAMD())
	for _, sc := range goldenScenarios() {
		if sc.faults.Enabled() {
			continue // runs may abort before the bitmap drains
		}
		for _, p := range profiles {
			d := dev(t, p, sc.bugs)
			rng := xrand.New(sc.seed)
			for i := 0; i < sc.runs; i++ {
				e, err := d.getExec(sc.spec, xrand.New(sc.seed))
				if err != nil {
					t.Fatal(err)
				}
				if err := checkCULive(e); err != nil {
					t.Fatalf("%s on %s, after reset %d: %v", sc.name, p.ShortName, i, err)
				}
				if _, err := d.RunCtx(context.Background(), sc.spec, rng); err != nil {
					t.Fatal(err)
				}
				if err := checkCULive(d.scratch); err != nil {
					t.Fatalf("%s on %s, after run %d: %v", sc.name, p.ShortName, i, err)
				}
			}
		}
	}
}
