package sched

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Segment is one settled cell in wire form: the unit a distributed
// worker delivers to its coordinator, and the unit the coordinator
// merges into a report. It is deliberately shaped like a checkpoint
// record — an encoded value keyed by cell identity — so the two
// durability paths (local JSONL checkpoint, remote segment delivery)
// carry the same information and compose: the coordinator persists
// accepted segments with Checkpoint.RecordRaw and seeds replayed
// checkpoint records back in as segments.
//
// A segment exists only for cells that resolved: succeeded (Value
// set) or permanently failed (Err set). Interrupted and aborted cells
// produce no segment — they are pending, and a missing segment is how
// AssembleReport knows a cell is still owed.
type Segment struct {
	// Key is the cell key within the campaign spec.
	Key string `json:"key"`
	// Value is the cell's encoded result; empty when Err is set.
	Value json.RawMessage `json:"value,omitempty"`
	// Err is the permanent failure rendered as text; empty on success.
	Err string `json:"err,omitempty"`
	// Attempts counts executions, so retry accounting survives the trip.
	Attempts int `json:"attempts,omitempty"`
	// Replayed marks segments restored from a checkpoint rather than
	// executed this run. Workers never set it; the coordinator does,
	// when seeding a resumed campaign.
	Replayed bool `json:"replayed,omitempty"`
	// CacheHit marks segments a worker served from its local result
	// cache instead of executing. Like Executed/Replayed it describes
	// how the work happened, not what the result is — no artifact
	// encodes it — so the coordinator can aggregate a fleet-wide hit
	// rate without touching the byte-identity contract.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// ExportSegments flattens a report's resolved cells into segments.
// Interrupted and aborted cells are skipped — they carry no result to
// deliver — so exporting a drained partial report is safe: the
// coordinator re-issues whatever is missing.
func ExportSegments[R any](rep *Report[R]) ([]Segment, error) {
	segs := make([]Segment, 0, len(rep.Results))
	for _, r := range rep.Results {
		if r.Interrupted || (r.Err != nil && errors.Is(r.Err, ErrAborted)) {
			continue
		}
		seg := Segment{Key: r.Cell.Key, Attempts: r.Attempts, Replayed: r.Replayed, CacheHit: r.CacheHit}
		if r.Err != nil {
			seg.Err = r.Err.Error()
		} else {
			raw, err := json.Marshal(r.Value)
			if err != nil {
				return nil, fmt.Errorf("sched: encode segment %s: %w", r.Cell.Key, err)
			}
			seg.Value = raw
		}
		segs = append(segs, seg)
	}
	return segs, nil
}

// AssembleReport reconstructs a campaign report from delivered
// segments. Cells without a segment are marked Interrupted — pending,
// exactly like cells abandoned by a local drain. When breaker is
// non-nil the same deterministic post-pass a local breaker run ends
// with settles quarantine verdicts, so the per-cell records, their
// tally and Health are identical to a single-process run of the same
// spec.
func AssembleReport[R any](spec Spec, segs map[string]Segment, breaker *BreakerOptions) (*Report[R], error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	rep := &Report[R]{Spec: spec, Results: make([]CellResult[R], len(spec.Cells))}
	for i, cell := range spec.Cells {
		r := &rep.Results[i]
		r.Cell = cell
		seg, ok := segs[cell.Key]
		if !ok {
			// Mirror the local drain exactly: a missing segment is a
			// pending cell, carrying the bare sentinel.
			r.Err = ErrInterrupted
			r.Interrupted = true
			continue
		}
		if seg.Replayed {
			if err := decodeValue(seg.Value, &r.Value); err != nil {
				return nil, fmt.Errorf("sched: decode replayed segment %s: %w", cell.Key, err)
			}
			r.Replayed = true
			continue
		}
		r.Attempts, r.CacheHit = seg.Attempts, seg.CacheHit
		if seg.Err != "" {
			r.Err = errors.New(seg.Err)
		} else if err := decodeValue(seg.Value, &r.Value); err != nil {
			return nil, fmt.Errorf("sched: decode segment %s: %w", cell.Key, err)
		}
	}
	if breaker != nil {
		applyBreaker(rep, *breaker)
	}
	rep.tally()
	return rep, nil
}
