package serve

import "testing"

// TestJobIDGolden pins the idempotency key of one defaulted spec per
// kind. A job ID derives from the normalized spec and the campaign
// manifest, so a change to either — a default, the manifest source, a
// descriptor field — would silently fork every stored job from its
// resubmissions; the committed IDs catch it.
func TestJobIDGolden(t *testing.T) {
	s, _, _ := queuedServer(t, Config{})
	cases := []struct {
		spec JobSpec
		id   string
	}{
		{JobSpec{Kind: "conformance"}, "5b8ba0c95daa2ba833db930711cbd8cb7a8b5589fe0b0dd38674da08a5e5a39f"},
		{JobSpec{Kind: "evaluate", Devices: []string{"AMD", "Intel"}, FenceBug: true}, "509513faa9af3557cedde754082c826693d1ad16db14bf16125473e7d33f85d9"},
		{JobSpec{Kind: "tune"}, "4f0ad9697f71b6047560dda7c57bc3d678c0add1ae37069571f57ba46a87ccfe"},
		{JobSpec{Kind: "correlate"}, "654cd641bb219967bc561d6f7a2e031a499df602ba499401e262280050093037"},
	}
	for _, c := range cases {
		js := c.spec
		js.normalize()
		manifest, _, err := s.plan(&js)
		if err != nil {
			t.Fatalf("%s: %v", js.Kind, err)
		}
		if got := jobID(manifest, js); got != c.id {
			t.Errorf("%s: job ID %s, golden %s", js.Kind, got, c.id)
		}
	}
}
