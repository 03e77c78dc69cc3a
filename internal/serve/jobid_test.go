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
		{JobSpec{Kind: "evaluate", Devices: []string{"AMD", "Intel"}, FenceBug: true}, "047fe713a337deecf1d8cddfda503a3cea29450078c67dc96f54dfc8ac7b7b70"},
		{JobSpec{Kind: "tune"}, "b36a1d6df76a3a041b0e70a101709e04db28e33f5a41817157fbfdcdcba283ae"},
	}
	for _, c := range cases {
		js := c.spec
		js.normalize(fleet())
		manifest, _, err := s.plan(&js)
		if err != nil {
			t.Fatalf("%s: %v", js.Kind, err)
		}
		if got := jobID(manifest, js); got != c.id {
			t.Errorf("%s: job ID %s, golden %s", js.Kind, got, c.id)
		}
	}
}
