package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// cellValue is a JSON-round-trippable result carrying an RNG draw, so
// replay mismatches are detectable.
type cellValue struct {
	Key  string `json:"key"`
	Draw uint64 `json:"draw"`
}

func drawValue(_ context.Context, c Cell, rng *xrand.Rand) (cellValue, error) {
	return cellValue{Key: c.Key, Draw: rng.Uint64()}, nil
}

func TestCheckpointResumeSkipsDoneCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(16)

	// Clean reference run, no checkpoint.
	clean, err := Run(spec, drawValue, Options[cellValue]{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// First run is killed "mid-way": cell-009 fails permanently under
	// fail-fast, so only part of the campaign lands in the checkpoint.
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(spec, func(ctx context.Context, c Cell, rng *xrand.Rand) (cellValue, error) {
		if c.Key == "cell-009" {
			return cellValue{}, fmt.Errorf("killed")
		}
		return drawValue(ctx, c, rng)
	}, Options[cellValue]{Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	ck.Close()

	// Resume: done cells replay, the rest execute, and the aggregate
	// matches the clean run exactly.
	ck2, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Completed() != 9 { // cells 0..8 completed before the failure
		t.Fatalf("checkpoint holds %d cells, want 9", ck2.Completed())
	}
	var executed atomic.Int32
	rep, err := Run(spec, func(ctx context.Context, c Cell, rng *xrand.Rand) (cellValue, error) {
		executed.Add(1)
		return drawValue(ctx, c, rng)
	}, Options[cellValue]{Workers: 4, Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 7 {
		t.Fatalf("resume executed %d cells, want 7", got)
	}
	if rep.Replayed != 9 || rep.Executed != 7 {
		t.Fatalf("counters: replayed=%d executed=%d", rep.Replayed, rep.Executed)
	}
	got, want := rep.Values(), clean.Values()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell %d: resumed %+v != clean %+v", i, got[i], want[i])
		}
	}
}

func TestCheckpointRejectsDifferentSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(4)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	other := testSpec(4)
	other.Seed = 43 // different seed → different results → invalid resume
	if _, err := OpenCheckpoint(path, other, true); err == nil {
		t.Fatal("resume accepted a checkpoint from a different spec")
	} else if !strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestCheckpointTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(6)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Simulate a kill mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell-9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ck2, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer ck2.Close()
	if ck2.Completed() != 6 {
		t.Fatalf("Completed = %d, want 6", ck2.Completed())
	}
	// The torn bytes are gone: a fresh record appends cleanly and the
	// file reloads.
	rep, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 6 {
		t.Fatalf("Replayed = %d, want 6", rep.Replayed)
	}
	ck3, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatalf("checkpoint unreadable after torn-tail recovery: %v", err)
	}
	ck3.Close()
}

// TestCheckpointFlippedByteDetected: a single bit of mid-file
// corruption — a flipped byte inside a record's value — fails that
// record's CRC and the resume is refused with ErrCheckpointCorrupt,
// instead of silently replaying a poisoned result.
func TestCheckpointFlippedByteDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(6)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside a Draw value in the middle of the file. The
	// line stays valid JSON, so only the checksum can catch it.
	idx := strings.Index(string(raw), `"draw":`)
	if idx < 0 {
		t.Fatal("no draw field in checkpoint")
	}
	pos := idx + len(`"draw":`)
	if raw[pos] >= '5' {
		raw[pos] = '1'
	} else {
		raw[pos] = '7'
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenCheckpoint(path, spec, true)
	if err == nil {
		t.Fatal("flipped byte accepted")
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("error is not ErrCheckpointCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestCheckpointMidFileTruncationDetected: only the final record may be
// torn. A malformed line with records after it means mid-file damage,
// not a crash mid-append, and the resume is refused.
func TestCheckpointMidFileTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(6)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	// Truncate the third record (header + two records kept intact).
	lines[3] = lines[3][:len(lines[3])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenCheckpoint(path, spec, true)
	if err == nil {
		t.Fatal("mid-file truncation accepted")
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("error is not ErrCheckpointCorrupt: %v", err)
	}
}

// TestCheckpointLegacyRecordsWithoutCRC: a record with no "crc" field
// fails verification exactly like a record whose checksum mismatches —
// resuming refuses the file with a line-numbered ErrCheckpointCorrupt.
func TestCheckpointLegacyRecordsWithoutCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(4)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Strip every crc field.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.Index(line, `,"crc":"`); i >= 0 {
			line = line[:i] + "}"
		}
		kept = append(kept, line)
	}
	if err := os.WriteFile(path, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, spec, true)
	if err == nil {
		ck2.Close()
		t.Fatal("checkpoint with un-checksummed records accepted")
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not name the first un-checksummed line: %v", err)
	}
}

func TestCheckpointResumeWithoutFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "missing.ckpt")
	spec := testSpec(2)
	ck, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if ck.Completed() != 0 {
		t.Fatal("fresh checkpoint not empty")
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestSensitivity(t *testing.T) {
	base := testSpec(3)
	m := base.Manifest()
	seed := base
	seed.Seed++
	reorder := testSpec(3)
	reorder.Cells[0], reorder.Cells[1] = reorder.Cells[1], reorder.Cells[0]
	fewer := testSpec(2)
	renamed := base
	renamed.Name = "other"
	for name, s := range map[string]Spec{
		"seed": seed, "order": reorder, "count": fewer, "name": renamed,
	} {
		if s.Manifest() == m {
			t.Errorf("manifest insensitive to %s", name)
		}
	}
	if base.Manifest() != m {
		t.Error("manifest not stable")
	}
}
