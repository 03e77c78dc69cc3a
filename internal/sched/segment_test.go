package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// segSpec builds a deterministic multi-device campaign whose exec
// mixes successes, retried transients and permanent failures, all as
// pure functions of the split-seed RNG — the same shape the real
// campaigns have.
func segSpec(cells int) Spec {
	spec := Spec{Name: "seg", Seed: 99}
	for i := 0; i < cells; i++ {
		spec.Cells = append(spec.Cells, Cell{
			Key:    fmt.Sprintf("cell-%02d", i),
			Device: fmt.Sprintf("dev%d", i%3),
		})
	}
	return spec
}

type segVal struct {
	Key  string `json:"key"`
	Draw int    `json:"draw"`
}

func segExec(ctx context.Context, c Cell, rng *xrand.Rand) (segVal, error) {
	draw := rng.Intn(100)
	switch {
	case draw < 10:
		return segVal{}, Transient(fmt.Errorf("flaky %s", c.Key))
	case draw < 25:
		return segVal{}, fmt.Errorf("permanent %s", c.Key)
	}
	return segVal{Key: c.Key, Draw: draw}, nil
}

func runSeg(t *testing.T, spec Spec, breaker *BreakerOptions) *Report[segVal] {
	t.Helper()
	rep, err := RunContext(context.Background(), spec, segExec, Options[segVal]{
		Workers:    3,
		MaxRetries: 2,
		Collect:    true,
		Breaker:    breaker,
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	return rep
}

// diffReports compares the byte-identity-relevant projection of two
// reports: per-cell values, error text, attempts and flags, plus the
// settled aggregate counters. TestBreakerCountersAcrossWorkers
// compares the other tallied counters.
func diffReports(t *testing.T, want, got *Report[segVal]) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("result count: want %d got %d", len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if w.Cell != g.Cell || w.Value != g.Value ||
			w.Quarantined != g.Quarantined || w.Interrupted != g.Interrupted ||
			w.Attempts != g.Attempts {
			t.Errorf("cell %s: want %+v got %+v", w.Cell.Key, w, g)
		}
		werr, gerr := "", ""
		if w.Err != nil {
			werr = w.Err.Error()
		}
		if g.Err != nil {
			gerr = g.Err.Error()
		}
		if werr != gerr {
			t.Errorf("cell %s error: want %q got %q", w.Cell.Key, werr, gerr)
		}
	}
	if want.Failed != got.Failed || want.Quarantined != got.Quarantined ||
		want.Retried != got.Retried || want.Interrupted != got.Interrupted {
		t.Errorf("counters: want %+v got failed=%d quarantined=%d retried=%d interrupted=%d",
			want, got.Failed, got.Quarantined, got.Retried, got.Interrupted)
	}
	if len(want.Health) != len(got.Health) {
		t.Fatalf("health: want %d entries got %d", len(want.Health), len(got.Health))
	}
	for i := range want.Health {
		if want.Health[i] != got.Health[i] {
			t.Errorf("health[%d]: want %+v got %+v", i, want.Health[i], got.Health[i])
		}
	}
}

func segMap(t *testing.T, segs []Segment) map[string]Segment {
	t.Helper()
	m := map[string]Segment{}
	for _, s := range segs {
		if _, dup := m[s.Key]; dup {
			t.Fatalf("duplicate segment %s", s.Key)
		}
		m[s.Key] = s
	}
	return m
}

// TestSegmentRoundTrip: export a finished report's segments, assemble
// them back, and require the settled projection to match.
func TestSegmentRoundTrip(t *testing.T) {
	spec := segSpec(24)
	rep := runSeg(t, spec, nil)
	segs, err := ExportSegments(rep)
	if err != nil {
		t.Fatalf("ExportSegments: %v", err)
	}
	if len(segs) != len(spec.Cells) {
		t.Fatalf("segments: want %d got %d", len(spec.Cells), len(segs))
	}
	got, err := AssembleReport[segVal](spec, segMap(t, segs), nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	diffReports(t, rep, got)
}

// TestSegmentRoundTripBreaker: the assembled report's quarantine
// verdicts and health must match a local breaker run exactly, because
// both end with the same deterministic post-pass.
func TestSegmentRoundTripBreaker(t *testing.T) {
	spec := segSpec(30)
	br := &BreakerOptions{Threshold: 2, Cooldown: 2}
	local := runSeg(t, spec, br)

	// The distributed side executes every cell (no live skip): run the
	// same spec without a breaker, export, then assemble WITH it.
	flat := runSeg(t, spec, nil)
	segs, err := ExportSegments(flat)
	if err != nil {
		t.Fatalf("ExportSegments: %v", err)
	}
	got, err := AssembleReport[segVal](spec, segMap(t, segs), br)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	diffReports(t, local, got)
}

// TestAssembleMissingSegmentInterrupted: cells without a segment are
// pending, exactly like a drained local run.
func TestAssembleMissingSegmentInterrupted(t *testing.T) {
	spec := segSpec(6)
	rep := runSeg(t, spec, nil)
	segs, err := ExportSegments(rep)
	if err != nil {
		t.Fatalf("ExportSegments: %v", err)
	}
	m := segMap(t, segs)
	delete(m, "cell-03")
	got, err := AssembleReport[segVal](spec, m, nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	if got.Interrupted != 1 {
		t.Fatalf("Interrupted = %d, want 1", got.Interrupted)
	}
	r := got.Results[3]
	if !r.Interrupted || !errors.Is(r.Err, ErrInterrupted) {
		t.Fatalf("cell-03 = %+v, want interrupted", r)
	}
}

// TestBreakerStateMachine: the exported wrapper walks the same
// threshold → cooldown → probation cycle the device breaker does.
func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker(BreakerOptions{Threshold: 3, Cooldown: 2})
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("refused before threshold (i=%d)", i)
		}
		b.Observe(false)
	}
	if !b.Open() {
		t.Fatal("breaker closed after threshold failures")
	}
	for i := 0; i < 2; i++ {
		if b.Allow() {
			t.Fatalf("allowed during cooldown (i=%d)", i)
		}
	}
	// Probation: allowed, and success closes the breaker.
	if !b.Allow() {
		t.Fatal("probation refused")
	}
	b.Observe(true)
	if b.Open() {
		t.Fatal("breaker still open after probation success")
	}
	// Probation failure re-opens immediately.
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Observe(false)
	}
	b.Allow()
	b.Allow()
	if !b.Allow() {
		t.Fatal("probation refused after cooldown")
	}
	b.Observe(false)
	if !b.Open() {
		t.Fatal("probation failure did not re-open the breaker")
	}
}

// TestAssembleDecodesThroughCellDecoder: replayed and delivered
// segment values decode by the same rule as checkpoint replay and cache
// hits, so a CellDecoder is handed its bytes directly.
func TestAssembleDecodesThroughCellDecoder(t *testing.T) {
	spec := segSpec(2)
	got, err := AssembleReport[ownDecoder](spec, map[string]Segment{
		"cell-00": {Key: "cell-00", Value: json.RawMessage(`{"a":`), Replayed: true},
		"cell-01": {Key: "cell-01", Value: json.RawMessage(`{"b":`), Attempts: 1},
	}, nil)
	if err != nil {
		t.Fatalf("AssembleReport: %v", err)
	}
	if a, b := got.Results[0].Value.raw, got.Results[1].Value.raw; a != `{"a":` || b != `{"b":` {
		t.Fatalf("CellDecoder was not called directly: %q, %q", a, b)
	}
}
