package sched

import (
	"strings"
	"testing"
)

// TestCellDigestGolden pins the cache key of a fixed spec, salt and
// cell set. Every persistent result cache is addressed by these
// digests, so a change to their preimage layout silently turns every
// user's cache cold; a warm-cache smoke that fills and reads with one
// build cannot notice. A deliberate layout change bumps cellDigestTag
// and updates these hexes in the same commit.
func TestCellDigestGolden(t *testing.T) {
	spec := Spec{Name: "tune", Seed: 2023, Cells: []Cell{
		{Key: "SITE-000/AMD/MP", Device: "AMD"},
		{Key: "PTE-Baseline-000/Intel/CoRR-mutant", Device: "Intel"},
		// A key longer than one SHA-256 block.
		{Key: "PTE-001/NVIDIA/" + strings.Repeat("x", 70), Device: "NVIDIA"},
	}}
	cases := []struct {
		salt string
		want []string
	}{
		{"", []string{
			"bfd6058b21981a16fd4f1f14c409262dba7b0a01406c93ce54540813867a4c47",
			"ffb0250013963583f368953809203a7fc52b7b863bbd78027e4a2489636ae0e7",
			"7a838bec378937e25f88c015bd87c9fd4dab79c0e1d26459b7d0b38fef4eb32e",
		}},
		// A salt that ends the constant prefix mid-block, as a tuning
		// run's JSON-encoded Config does.
		{`{"config":{"Environments":1,"SITEIterations":1,"PTEIterations":1,"Seed":2023}}`, []string{
			"2ae31b019428ec13f50dd26f403cd54e6ee45dc5933aef5878e483ff6e73b532",
			"61e91e604b82c8536bd6a59d4c858870bc428747fad639fd66a831b97b217b6d",
			"64a67b2065ed4d729155aab6f6f8e7387a67ea8135415606e798a776b85a7cd7",
		}},
		// A salt spanning several blocks.
		{strings.Repeat("salt/", 40), []string{
			"92202c76b4c07ad66967762dda65d16ad533ca6bf9c6c3c32d00e95b0bc9be86",
			"701a711b4bfe6295c288e8ad7a6b0a81be84d316b996ecc5a39b50d5100407dd",
			"e31b0653f10599969316e8f1eb37aa4843046ce1e5e2c4a0863941cc5b12843c",
		}},
	}
	for _, tc := range cases {
		// One hasher digests every cell, so state left over from one
		// digest would show in the next.
		digest := spec.cellDigests(tc.salt).hasher()
		for i, c := range spec.Cells {
			if got := digest(c); got != tc.want[i] {
				t.Errorf("salt %.20q cell %s: digest %s, want %s", tc.salt, c.Key, got, tc.want[i])
			}
		}
	}
}

// BenchmarkCellDigest measures one cache key the way a warm tuning
// cell computes it: under a salt the size of a four-device tuning
// Config, with the campaign-constant prefix hashed beforehand.
func BenchmarkCellDigest(b *testing.B) {
	salt := `{"payload":"tuning-measurement/v1","config":{"Environments":16,"SITEIterations":2,"PTEIterations":1,` +
		`"PTEWorkgroups":8,"PTEWorkgroupSize":16,"Scale":{"MinTestingWG":2,"MaxTestingWG":16,"MinWGSizeLog2":3,` +
		`"MaxWGSizeLog2":6,"MaxStressWG":8,"MaxStressIters":24,"MaxPreStressIters":8},` +
		`"Devices":["Intel","Apple","AMD","NVIDIA"],"Seed":1}}`
	spec := Spec{Name: "tune", Seed: 1}
	cell := Cell{Key: "PTE-007/NVIDIA/MP-relacq-mutant", Device: "NVIDIA"}
	digest := spec.cellDigests(salt).hasher()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		digestSink = digest(cell)
	}
}

var digestSink string
