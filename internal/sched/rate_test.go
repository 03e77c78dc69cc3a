package sched

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRateZeroElapsed: the shared rate helper reports zero throughput
// when no time has measurably passed, instead of dividing by a clamped
// epsilon and inventing a rate of n × 1e9.
func TestRateZeroElapsed(t *testing.T) {
	if r := Rate(5, 0); r != 0 {
		t.Fatalf("Rate(5, 0) = %v, want 0", r)
	}
	if r := Rate(5, -1); r != 0 {
		t.Fatalf("Rate(5, -1) = %v, want 0", r)
	}
	if r := Rate(10, 2); r != 5 {
		t.Fatalf("Rate(10, 2) = %v, want 5", r)
	}
}

// TestInstantJobSnapshotRates is the warm-cache regression: a campaign
// that completes within one clock granule — every cell replayed from a
// checkpoint or served from a warm cache — produces a snapshot whose
// elapsed time is exactly zero. Rates must come out zero, finite, and
// JSON-marshalable, not executed × 1e9.
func TestInstantJobSnapshotRates(t *testing.T) {
	// A warm run: cells resolve by replay and cache hits, plus one
	// executed cell — the case the epsilon clamp used to blow up on.
	rep := &Report[int]{Spec: Spec{Name: "instant", Cells: make([]Cell, 4)},
		Executed: 1, Replayed: 1, CacheHits: 2}
	p := progressOf(rep, 7, map[string]float64{"AMD": 0}, 0)
	if p.ElapsedSeconds != 0 {
		t.Fatalf("elapsed = %v under a frozen clock", p.ElapsedSeconds)
	}
	if p.CellsPerSec != 0 || p.InstancesPerSec != 0 {
		t.Fatalf("instant-job rates = %v cells/s, %v instances/s; want 0",
			p.CellsPerSec, p.InstancesPerSec)
	}
	var got []Progress
	s := StreamProgress(func(p Progress) { got = append(got, p) }, time.Hour,
		func() Progress { return p })
	s.Finish(FinalProgress(rep, 7, 0))
	final := got[len(got)-1]
	if !final.Final {
		t.Fatal("no final snapshot")
	}
	for _, v := range []float64{final.CellsPerSec, final.InstancesPerSec} {
		if math.IsInf(v, 0) || math.IsNaN(v) || v != 0 {
			t.Fatalf("final rate = %v, want 0", v)
		}
	}
	if _, err := json.Marshal(final); err != nil {
		t.Fatalf("final snapshot does not marshal: %v", err)
	}
}

// TestReporterInstantLine: the progress line of a campaign that took
// no measurable time reads 0.0 cells/s, not a screenful of digits.
func TestReporterInstantLine(t *testing.T) {
	rep := &Report[int]{Spec: Spec{Name: "instant", Cells: make([]Cell, 2)}, Executed: 2}
	last := FinalProgress(rep, 3, 0).String()
	if !strings.Contains(last, "0.0 cells/s") {
		t.Fatalf("instant-run summary line reports a phantom rate: %q", last)
	}
	if !strings.HasSuffix(last, " done") {
		t.Fatalf("final line does not end in done: %q", last)
	}
}
