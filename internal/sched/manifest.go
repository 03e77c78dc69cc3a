package sched

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
)

// Manifest returns a stable hex digest of the campaign spec: its name,
// seed and ordered cell identities. Two specs share a manifest exactly
// when a checkpoint written by one is a valid resume point for the
// other — same cells, same order, same seed, so every cell's RNG
// stream and therefore its result is the same.
func (s *Spec) Manifest() string {
	h := sha256.New()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], s.Seed)
	writeField(h, s.Name)
	h.Write(seed[:])
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s.Cells)))
	h.Write(n[:])
	for _, c := range s.Cells {
		writeField(h, c.Key)
		writeField(h, c.Device)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cellDigestTag versions the cell-digest preimage layout. Bump it when
// the encoding below changes so stale cache entries keyed under the old
// layout can never alias new ones.
const cellDigestTag = "mcmutants-cell/v1"

// cellDigests computes the cell digests of one campaign under one
// salt. A cell digest is the content address of the cell's result: a
// hex SHA-256 over the digest layout tag, a caller-supplied salt
// capturing every workload parameter outside the spec (iteration
// counts, fault model, retry policy — whatever the exec closure bakes
// in), and the spec fields the cell's RNG stream derives from (name,
// seed, cell key, device). Two cells share a digest exactly when
// executing them must produce the same value, which is what makes the
// digest a safe key for the cross-campaign result cache. The encoding
// is the same length-prefixed scheme Manifest uses, so field
// boundaries cannot alias.
//
// The campaign-constant prefix (tag, salt, name, seed) is hashed once,
// when the scheduler builds the cellDigests before its workers start;
// every digest resumes from that hash state.
type cellDigests struct {
	prefix []byte // marshaled SHA-256 state after the constant prefix
}

func (s *Spec) cellDigests(salt string) cellDigests {
	h := sha256.New()
	writeField(h, cellDigestTag)
	writeField(h, salt)
	writeField(h, s.Name)
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], s.Seed)
	h.Write(seed[:])
	prefix, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("sched: marshal SHA-256 state: " + err.Error())
	}
	return cellDigests{prefix: prefix}
}

// hasher returns a function computing cell digests. It reuses one
// SHA-256 state and one scratch buffer across calls, so each goroutine
// needs its own.
func (d cellDigests) hasher() func(Cell) string {
	h := sha256.New()
	restore := h.(encoding.BinaryUnmarshaler)
	var buf []byte
	var sum [sha256.Size]byte
	var text [2 * sha256.Size]byte
	return func(c Cell) string {
		if err := restore.UnmarshalBinary(d.prefix); err != nil {
			panic("sched: restore SHA-256 state: " + err.Error())
		}
		buf = appendField(appendField(buf[:0], c.Key), c.Device)
		h.Write(buf)
		hex.Encode(text[:], h.Sum(sum[:0]))
		return string(text[:])
	}
}

// writeField writes a length-prefixed string (see appendField).
func writeField(h interface{ Write([]byte) (int, error) }, s string) {
	h.Write(appendField(nil, s))
}

// appendField appends s length-prefixed, so field boundaries cannot
// alias ("ab","c" vs "a","bc").
func appendField(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s)))
	return append(b, s...)
}
