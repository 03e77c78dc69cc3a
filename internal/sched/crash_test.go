package sched

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/diskio"
)

// countCheckpointOps runs the spec to completion through a fault-free
// FaultFS and returns how many mutating I/O operations the campaign's
// checkpoint performs end to end — the crash-boundary space for
// TestCampaignSurvivesCrashAtEveryIOBoundary. Workers is 1 so the
// operation sequence is deterministic.
func countCheckpointOps(t *testing.T, spec Spec) int {
	t.Helper()
	dir := t.TempDir()
	ffs := diskio.NewFaultFS(diskio.OS{}, 7)
	ck, err := OpenCheckpointOpts(filepath.Join(dir, "c.ckpt"), spec, false,
		CheckpointOptions{FS: ffs, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	return ffs.Ops()
}

// TestCampaignSurvivesCrashAtEveryIOBoundary is the storage layer's
// acceptance criterion: a campaign whose process dies at ANY single
// I/O operation — header creation, record append, fsync, rename,
// directory sync, the lot — resumes to results identical to an
// uninterrupted run, and the on-disk checkpoint is never left in a
// state the resume cannot handle.
func TestCampaignSurvivesCrashAtEveryIOBoundary(t *testing.T) {
	spec := testSpec(6)
	clean, err := Run(spec, drawValue, Options[cellValue]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Values()
	total := countCheckpointOps(t, spec)
	if total < 10 {
		t.Fatalf("only %d checkpoint ops; the boundary space is implausibly small", total)
	}

	for n := 1; n <= total; n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "c.ckpt")
		ffs := diskio.NewFaultFS(diskio.OS{}, 7)
		ffs.CrashAfter(n)

		// Doomed run: freeze all I/O at the nth operation, simulating the
		// process dying there. The open or the run fails with ErrCrashed —
		// never a panic, never a silently-wrong success.
		ck, err := OpenCheckpointOpts(path, spec, false, CheckpointOptions{FS: ffs, FsyncEvery: 1})
		if err != nil {
			if !errors.Is(err, diskio.ErrCrashed) {
				t.Fatalf("n=%d: open failed with a non-crash error: %v", n, err)
			}
		} else {
			if _, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck}); err != nil && !errors.Is(err, diskio.ErrCrashed) {
				t.Fatalf("n=%d: run failed with a non-crash error: %v", n, err)
			}
			ck.Close() // frozen close still releases the descriptor
		}
		if !ffs.Crashed() {
			t.Fatalf("n=%d: crash point inside the profiled range never fired", n)
		}

		// Resume on the real filesystem, as a restarted process would.
		// Whatever the crash left behind — no file, a stray .tmp, a torn
		// tail — the resume salvages it and finishes the campaign.
		ck2, err := OpenCheckpointOpts(path, spec, true, CheckpointOptions{})
		if err != nil {
			t.Fatalf("n=%d: resume failed: %v", n, err)
		}
		rep, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck2})
		if err != nil {
			t.Fatalf("n=%d: resumed run failed: %v", n, err)
		}
		if err := ck2.Close(); err != nil {
			t.Fatalf("n=%d: close after resume: %v", n, err)
		}
		got := rep.Values()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: cell %d: resumed %+v != clean %+v", n, i, got[i], want[i])
			}
		}
		if rep.Replayed+rep.Executed != len(spec.Cells) {
			t.Fatalf("n=%d: replayed %d + executed %d != %d cells", n, rep.Replayed, rep.Executed, len(spec.Cells))
		}
		// The resumed checkpoint is itself clean: one more resume loads
		// every cell.
		ck3, err := OpenCheckpoint(path, spec, true)
		if err != nil {
			t.Fatalf("n=%d: post-resume checkpoint unreadable: %v", n, err)
		}
		if ck3.Completed() != len(spec.Cells) {
			t.Fatalf("n=%d: post-resume checkpoint holds %d cells, want %d", n, ck3.Completed(), len(spec.Cells))
		}
		ck3.Close()
	}
}

// TestCheckpointTornTailAtEveryByteOffset truncates the checkpoint at
// every byte offset inside its final record. Each truncation must
// either salvage cleanly — the torn tail is discarded and the campaign
// resumes to clean-run results — or be reported as ErrCheckpointCorrupt;
// never a panic, never a partial replay of a half-record.
func TestCheckpointTornTailAtEveryByteOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(5)
	clean, err := Run(spec, drawValue, Options[cellValue]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Values()
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimRight(string(whole), "\n")
	lastStart := strings.LastIndexByte(body, '\n') + 1 // first byte of the final record

	for cut := lastStart; cut <= len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ck2, err := OpenCheckpoint(path, spec, true)
		if err != nil {
			// A truncation is allowed to read as corruption (e.g. the cut
			// leaves valid JSON whose value no longer matches its CRC), but
			// it must say so with the sentinel, not an opaque failure.
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("cut=%d: non-corruption error: %v", cut, err)
			}
			continue
		}
		n := ck2.Completed()
		if n != len(spec.Cells) && n != len(spec.Cells)-1 {
			t.Fatalf("cut=%d: salvaged %d cells, want %d or %d", cut, n, len(spec.Cells)-1, len(spec.Cells))
		}
		rep, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck2})
		if err != nil {
			t.Fatalf("cut=%d: resumed run failed: %v", cut, err)
		}
		ck2.Close()
		got := rep.Values()
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cut=%d: cell %d: resumed %+v != clean %+v", cut, i, got[i], want[i])
			}
		}
	}
}

// TestCheckpointDegradesOnENOSPC: a checkpoint that hits disk-full
// mid-campaign switches to in-memory operation — the campaign finishes
// with results identical to a clean run and the report says so —
// instead of dying with a write error.
func TestCheckpointDegradesOnENOSPC(t *testing.T) {
	spec := testSpec(8)
	clean, err := Run(spec, drawValue, Options[cellValue]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := diskio.NewFaultFS(diskio.OS{}, 7)
	ck, err := OpenCheckpointOpts(filepath.Join(dir, "c.ckpt"), spec, false,
		CheckpointOptions{FS: ffs, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailFrom(ffs.Ops()+3, syscall.ENOSPC) // disk fills a couple of records in
	rep, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck})
	if err != nil {
		t.Fatalf("ENOSPC killed the campaign instead of degrading: %v", err)
	}
	if !rep.StorageDegraded || rep.StorageErr == "" {
		t.Fatalf("report not marked degraded: degraded=%v err=%q", rep.StorageDegraded, rep.StorageErr)
	}
	if derr := ck.Degraded(); derr == nil || !strings.Contains(derr.Error(), "in-memory") {
		t.Fatalf("Degraded() = %v", derr)
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("close of degraded checkpoint: %v", err)
	}
	got, want := rep.Values(), clean.Values()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cell %d: degraded %+v != clean %+v", i, got[i], want[i])
		}
	}
}

// TestCheckpointDegradesOnEIO: a single I/O error on a sync degrades
// the checkpoint exactly like ENOSPC — degradation is sticky, so one
// flaky sector cannot flap the checkpoint in and out of durability.
func TestCheckpointDegradesOnEIO(t *testing.T) {
	spec := testSpec(6)
	dir := t.TempDir()
	ffs := diskio.NewFaultFS(diskio.OS{}, 7)
	ck, err := OpenCheckpointOpts(filepath.Join(dir, "c.ckpt"), spec, false,
		CheckpointOptions{FS: ffs, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailOp(ffs.Ops()+2, syscall.EIO) // exactly one failing operation
	rep, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck})
	if err != nil {
		t.Fatalf("EIO killed the campaign instead of degrading: %v", err)
	}
	if !rep.StorageDegraded {
		t.Fatal("report not marked degraded after EIO")
	}
	if err := ck.Close(); err != nil {
		t.Fatalf("close of degraded checkpoint: %v", err)
	}
}

// TestCheckpointNonStorageErrorIsFatal: only exhausted or failing media
// degrades. Any other write failure — here a permission error — is a
// hard campaign failure, because continuing would paper over a bug.
func TestCheckpointNonStorageErrorIsFatal(t *testing.T) {
	spec := testSpec(4)
	dir := t.TempDir()
	ffs := diskio.NewFaultFS(diskio.OS{}, 7)
	ck, err := OpenCheckpointOpts(filepath.Join(dir, "c.ckpt"), spec, false,
		CheckpointOptions{FS: ffs, FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	ffs.FailFrom(ffs.Ops()+1, syscall.EACCES)
	_, err = Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck})
	if err == nil {
		t.Fatal("non-storage write error did not fail the campaign")
	}
	if !errors.Is(err, syscall.EACCES) {
		t.Fatalf("error does not carry the cause: %v", err)
	}
}

// TestCheckpointRejectsEmptyFile: the header is published atomically,
// so our writer can never leave an empty checkpoint behind; an empty
// file at the path is damage and -resume refuses it loudly instead of
// silently starting over.
func TestCheckpointRejectsEmptyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenCheckpoint(path, testSpec(2), true)
	if err == nil {
		t.Fatal("empty checkpoint accepted")
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("error is not ErrCheckpointCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), "no header") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestCheckpointOversizedRecordRejectedAtWrite: a record too large for
// a later resume to scan is refused at record() time — before touching
// the file — so the writer cannot produce a checkpoint its own reader
// chokes on.
func TestCheckpointOversizedRecordRejectedAtWrite(t *testing.T) {
	old := maxRecordBytes
	maxRecordBytes = 256
	defer func() { maxRecordBytes = old }()

	dir := t.TempDir()
	spec := testSpec(2)
	ck, err := OpenCheckpoint(filepath.Join(dir, "c.ckpt"), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	err = ck.record("cell-000", strings.Repeat("x", 512))
	if err == nil {
		t.Fatal("oversized record accepted")
	}
	if !strings.Contains(err.Error(), "record limit") && !strings.Contains(err.Error(), "byte limit") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// The file is untouched: a small record still appends and reloads.
	if err := ck.record("cell-001", "ok"); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	ck2, err := OpenCheckpoint(filepath.Join(dir, "c.ckpt"), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Completed() != 1 {
		t.Fatalf("Completed = %d, want 1", ck2.Completed())
	}
}

// TestCheckpointOversizedLineReportedAsCorruption: a line beyond the
// record limit in an existing file surfaces as ErrCheckpointCorrupt
// naming the line, not as a bare bufio.ErrTooLong.
func TestCheckpointOversizedLineReportedAsCorruption(t *testing.T) {
	old := maxRecordBytes
	maxRecordBytes = 4096
	defer func() { maxRecordBytes = old }()

	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(2)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	huge := fmt.Sprintf(`{"key":"cell-000","value":%q}`, strings.Repeat("x", 8192))
	if _, err := f.WriteString(huge + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, err = OpenCheckpoint(path, spec, true)
	if err == nil {
		t.Fatal("oversized line accepted")
	}
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("error is not ErrCheckpointCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error does not name the line: %v", err)
	}
	if errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("bare bufio.ErrTooLong leaked: %v", err)
	}
}

// TestCheckpointRotationCompacts: resuming rewrites the file as a fresh
// sealed segment — torn tails dropped, duplicate keys deduplicated to
// the last value — so a repeatedly crashed-and-resumed campaign's
// checkpoint stays at its live size.
func TestCheckpointRotationCompacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.ckpt")
	spec := testSpec(4)
	ck, err := OpenCheckpoint(path, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, drawValue, Options[cellValue]{Workers: 1, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	// Rough the file up: append a duplicate of cell-000 with a different
	// value, then a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	dupVal := []byte(`{"key":"cell-000","draw":1}`)
	dup := fmt.Sprintf(`{"key":"cell-000","value":%s,"crc":"%s"}`, dupVal, crcHex(dupVal))
	lines = append(lines, dup, `{"key":"torn`)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Completed() != 4 {
		t.Fatalf("Completed = %d, want 4", ck2.Completed())
	}
	// The duplicate's later value won.
	if v, ok := ck2.Done("cell-000"); !ok || string(v) != string(dupVal) {
		t.Fatalf("cell-000 = %s, want %s", v, dupVal)
	}
	ck2.Close()

	// The rotated file is canonical: header plus exactly one checksummed
	// line per cell, no torn bytes.
	rotated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimRight(string(rotated), "\n"), "\n")
	if len(got) != 1+4 {
		t.Fatalf("rotated file has %d lines, want 5:\n%s", len(got), rotated)
	}
	for _, line := range got[1:] {
		if !strings.Contains(line, `"crc":"`) {
			t.Fatalf("rotated record lacks a CRC: %s", line)
		}
	}
	// Rotating again is a no-op byte-wise: the segment is already
	// canonical.
	ck3, err := OpenCheckpoint(path, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	ck3.Close()
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(rotated) {
		t.Fatalf("second rotation changed a canonical segment:\n%s\nvs\n%s", rotated, again)
	}
}
