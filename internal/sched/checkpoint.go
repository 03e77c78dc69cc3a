package sched

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/diskio"
)

// Checkpoint persists completed cells as JSONL so an interrupted
// campaign resumes by replaying them. The file layout is:
//
//	{"campaign":"<name>","manifest":"<hex>"}                  // header, line 1
//	{"key":"<cell key>","value":<result JSON>,"crc":"<hex>"}  // one line per cell
//
// The manifest is Spec.Manifest(); resuming against a checkpoint whose
// manifest differs (different cells, order or seed) is an error, since
// its recorded results would not match what a clean run produces.
//
// Each record carries a Castagnoli CRC-32 of its value bytes, verified
// on resume. Only the final line of the file may be malformed — the
// torn tail of a run killed mid-write — and is then discarded. A
// malformed line with data after it, or any record failing its
// checksum, is mid-file corruption and resuming fails with
// ErrCheckpointCorrupt instead of silently resuming over bad data.
// A record without a "crc" field fails verification the same way.
//
// Durability: the header is published atomically (write temp → fsync →
// rename → fsync dir), so a file at the checkpoint path always begins
// with a valid header — a crash during creation leaves no file at all,
// never a headerless one. Records are fsynced every FsyncEvery cells
// (bounded loss; lost cells re-run on resume), and on resume the
// replayed cells are compacted into a fresh sealed segment, so a
// repeatedly-crashed-and-resumed campaign's checkpoint does not grow
// without bound and torn bytes do not accumulate.
//
// A persistently failing disk (ENOSPC, EIO) degrades the checkpoint to
// in-memory operation instead of killing the campaign: recording
// continues into the done map, Degraded reports the cause, and the
// scheduler surfaces it as Report.StorageDegraded.
type Checkpoint struct {
	mu         sync.Mutex
	fs         diskio.FS
	f          diskio.File
	path       string
	manifest   string
	done       map[string]json.RawMessage
	fsyncEvery int
	sinceSync  int
	degraded   error
}

// DefaultFsyncEvery is the bounded-loss fsync policy: at most this many
// completed cells can be lost to the page cache by an ungraceful death.
const DefaultFsyncEvery = 32

// maxRecordBytes caps one checkpoint line (record plus newline). The
// limit is enforced symmetrically: record refuses to append a line a
// later resume could not scan, and load reports an oversized line as
// corruption instead of a bare bufio.ErrTooLong. A var so tests can
// shrink it.
var maxRecordBytes = 1 << 26 // 64 MiB, the historical scanner cap

// CheckpointOptions tunes a checkpoint's storage behavior. The zero
// value is the real filesystem with the default fsync policy.
type CheckpointOptions struct {
	// FS is the filesystem the checkpoint reads and writes through; nil
	// means the real OS filesystem. Tests substitute a fault-injecting
	// diskio.FaultFS.
	FS diskio.FS
	// FsyncEvery bounds completed-work loss on an ungraceful death
	// (kill -9, power cut): the file is fsynced after every N recorded
	// cells. 0 means DefaultFsyncEvery; negative syncs only at drain and
	// close (fastest, loss bounded only by the page cache). Lost cells
	// are simply re-run on resume — the policy bounds wasted work, never
	// correctness.
	FsyncEvery int
}

// fsyncPolicy resolves the configured policy to records-per-fsync:
// positive N, or 0 for "only at drain/close".
func (o CheckpointOptions) fsyncPolicy() int {
	switch {
	case o.FsyncEvery > 0:
		return o.FsyncEvery
	case o.FsyncEvery < 0:
		return 0
	default:
		return DefaultFsyncEvery
	}
}

// checkpointHeader is line 1 of the file.
type checkpointHeader struct {
	Campaign string `json:"campaign"`
	Manifest string `json:"manifest"`
}

// crcTable is the Castagnoli polynomial table used for record checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcHex renders the checksum of a record's value bytes.
func crcHex(value []byte) string {
	return fmt.Sprintf("%08x", crc32.Checksum(value, crcTable))
}

// checkpointRecord is one completed cell.
type checkpointRecord struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
	// CRC is the Castagnoli CRC-32 of Value, hex-encoded. Always
	// written; on load a missing CRC fails verification like a wrong
	// one.
	CRC string `json:"crc"`
}

// OpenCheckpoint opens (or creates) a checkpoint for the spec on the
// real filesystem with default options; see OpenCheckpointOpts.
func OpenCheckpoint(path string, spec Spec, resume bool) (*Checkpoint, error) {
	return OpenCheckpointOpts(path, spec, resume, CheckpointOptions{})
}

// OpenCheckpointOpts opens (or creates) a checkpoint for the spec. With
// resume false a fresh header is published atomically (replacing any
// existing file); with resume true an existing file is validated
// against the spec's manifest, its completed cells become replayable
// via Done, and the file is compacted into a fresh sealed segment
// before new records append.
func OpenCheckpointOpts(path string, spec Spec, resume bool, opts CheckpointOptions) (*Checkpoint, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = diskio.OS{}
	}
	c := &Checkpoint{
		fs:         fsys,
		path:       path,
		manifest:   spec.Manifest(),
		done:       map[string]json.RawMessage{},
		fsyncEvery: opts.fsyncPolicy(),
	}
	if resume {
		order, found, err := c.load(spec.Name)
		if err != nil {
			return nil, err
		}
		if found {
			if err := c.rotate(spec.Name, order); err != nil {
				return nil, err
			}
			return c, nil
		}
		// No existing file: fall through and start fresh.
	}
	hdr, _ := json.Marshal(checkpointHeader{Campaign: spec.Name, Manifest: c.manifest})
	if err := diskio.WriteFileAtomic(fsys, path, append(hdr, '\n')); err != nil {
		return nil, fmt.Errorf("sched: create checkpoint: %w", err)
	}
	return c, c.openAppend()
}

// openAppend opens the sealed file at c.path for record appends.
func (c *Checkpoint) openAppend() error {
	f, err := c.fs.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sched: open checkpoint for append: %w", err)
	}
	c.f = f
	return nil
}

// load reads and validates an existing checkpoint file, collecting the
// done map and the on-disk key order for compaction. It reports found
// false when no file exists. The file is not kept open; rotation
// republishes it and reopens for appending.
func (c *Checkpoint) load(campaign string) (order []string, found bool, err error) {
	f, err := diskio.Open(c.fs, c.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("sched: open checkpoint: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 4096), maxRecordBytes)
	if !sc.Scan() {
		if serr := scanErr(c.path, sc, 1); serr != nil {
			return nil, false, serr
		}
		// The atomic header publication makes an empty checkpoint
		// impossible to produce by crashing this program; treat one as
		// damage rather than silently discarding the resume intent.
		return nil, false, fmt.Errorf("sched: checkpoint %s exists but has no header: %w; delete the file or rerun without -resume",
			c.path, ErrCheckpointCorrupt)
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, false, fmt.Errorf("sched: checkpoint %s: malformed header: %w", c.path, err)
	}
	if hdr.Manifest != c.manifest {
		return nil, false, fmt.Errorf("sched: checkpoint %s was written by a different campaign spec (manifest %.12s, want %.12s); rerun without -resume or delete it",
			c.path, hdr.Manifest, c.manifest)
	}
	lineNo := 1
	torn := 0 // line number of a malformed line; only the final line may be torn
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if torn > 0 {
			// A malformed line with data after it cannot be a torn tail:
			// the file is corrupt in the middle.
			return nil, false, fmt.Errorf("sched: checkpoint %s: malformed record at line %d with records after it: %w; delete the file or rerun without -resume",
				c.path, torn, ErrCheckpointCorrupt)
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" {
			torn = lineNo // torn tail if the scan ends here, corruption otherwise
			continue
		}
		if crcHex(rec.Value) != rec.CRC {
			return nil, false, fmt.Errorf("sched: checkpoint %s: record %q (line %d) fails its checksum: %w; delete the file or rerun without -resume",
				c.path, rec.Key, lineNo, ErrCheckpointCorrupt)
		}
		if _, seen := c.done[rec.Key]; !seen {
			order = append(order, rec.Key)
		}
		c.done[rec.Key] = append(json.RawMessage(nil), rec.Value...)
	}
	if serr := scanErr(c.path, sc, lineNo+1); serr != nil {
		return nil, false, serr
	}
	return order, true, nil
}

// scanErr converts a scanner failure into a caller-facing error; an
// oversized line is reported as corruption naming the line rather than
// a bare bufio.ErrTooLong.
func scanErr(path string, sc *bufio.Scanner, line int) error {
	err := sc.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("sched: checkpoint %s: record at line %d exceeds the %d-byte record limit: %w; delete the file or rerun without -resume",
			path, line, maxRecordBytes, ErrCheckpointCorrupt)
	}
	return fmt.Errorf("sched: read checkpoint: %w", err)
}

// rotate compacts the loaded records into a fresh sealed segment —
// header plus one checksummed line per done cell, in on-disk order —
// published atomically over the old file, then reopens it for
// appending. Rotation drops torn tails and duplicate keys, so resuming
// many times cannot grow the checkpoint beyond its live contents; a
// crash mid-rotation leaves the previous file intact.
func (c *Checkpoint) rotate(campaign string, order []string) error {
	err := diskio.WriteAtomic(c.fs, c.path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		hdr, _ := json.Marshal(checkpointHeader{Campaign: campaign, Manifest: c.manifest})
		bw.Write(hdr)
		bw.WriteByte('\n')
		for _, key := range order {
			line, err := json.Marshal(checkpointRecord{Key: key, Value: c.done[key], CRC: crcHex(c.done[key])})
			if err != nil {
				return fmt.Errorf("compact %s: %w", key, err)
			}
			bw.Write(line)
			bw.WriteByte('\n')
		}
		return bw.Flush()
	})
	if err != nil {
		return fmt.Errorf("sched: rotate checkpoint %s: %w", c.path, err)
	}
	return c.openAppend()
}

// Done returns the recorded result for a cell key, if present.
func (c *Checkpoint) Done(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.done[key]
	return raw, ok
}

// Completed returns how many cells the checkpoint holds.
func (c *Checkpoint) Completed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Degraded returns the storage failure that switched the checkpoint to
// in-memory operation, or nil while it is still writing through. A
// degraded checkpoint keeps recording into its done map — the campaign
// finishes with correct results — but cells recorded after the failure
// are not durable.
func (c *Checkpoint) Degraded() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

// record appends one completed cell — with its value checksum — so a
// kill at any point loses at most the in-flight record plus the cells
// of the current fsync window. An oversized record is rejected before
// touching the file; an ENOSPC/EIO write failure degrades the
// checkpoint instead of failing the cell.
func (c *Checkpoint) record(key string, value any) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("sched: checkpoint %s: %w", key, err)
	}
	return c.RecordRaw(key, raw)
}

// RecordRaw is record for values that are already encoded: the raw
// JSON is written verbatim, so a record that round-tripped through
// another process (a distributed worker's segment) checkpoints
// byte-identically to one produced locally. The distributed
// coordinator uses it to persist incoming segments.
func (c *Checkpoint) RecordRaw(key string, raw json.RawMessage) error {
	line, err := json.Marshal(checkpointRecord{Key: key, Value: raw, CRC: crcHex(raw)})
	if err != nil {
		return fmt.Errorf("sched: checkpoint %s: %w", key, err)
	}
	if len(line)+1 > maxRecordBytes {
		return fmt.Errorf("sched: checkpoint %s: record is %d bytes, exceeding the %d-byte limit a resume can load; it was not written",
			key, len(line)+1, maxRecordBytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("sched: checkpoint closed")
	}
	c.done[key] = raw
	if c.degraded != nil {
		return nil // in-memory only; the degradation is already reported
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return c.storageFail("append", err)
	}
	c.sinceSync++
	if c.fsyncEvery > 0 && c.sinceSync >= c.fsyncEvery {
		if err := c.f.Sync(); err != nil {
			return c.storageFail("sync", err)
		}
		c.sinceSync = 0
	}
	return nil
}

// storageFail classifies a failed checkpoint write: exhausted or
// failing media (ENOSPC, EIO) degrades the checkpoint to in-memory
// operation and the campaign continues; anything else — including a
// simulated crash — is a hard error. The caller holds c.mu.
func (c *Checkpoint) storageFail(stage string, err error) error {
	if diskio.IsStorageErr(err) {
		c.degraded = fmt.Errorf("sched: checkpoint %s degraded to in-memory (%s failed): %w", c.path, stage, err)
		return nil
	}
	return fmt.Errorf("sched: %s checkpoint: %w", stage, err)
}

// Sync flushes the checkpoint to stable storage (fsync). The scheduler
// calls it when a campaign finishes or drains, so a process exit right
// after an interrupt cannot lose recorded cells to the page cache. It
// runs regardless of the fsync policy; a degraded checkpoint is a
// no-op.
func (c *Checkpoint) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.syncLocked()
}

// syncLocked is Sync under a held c.mu.
func (c *Checkpoint) syncLocked() error {
	if c.f == nil || c.degraded != nil {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		return c.storageFail("sync", err)
	}
	c.sinceSync = 0
	return nil
}

// Close syncs and closes the file.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.syncLocked()
	cerr := c.f.Close()
	if err == nil && c.degraded == nil {
		err = cerr
	}
	c.f = nil
	return err
}
