package tuning

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// prefilled is the value both decoders start from in the equivalence
// checks: nonzero everywhere, so a field the input leaves out shows
// whether it was kept.
var prefilled = Measurement{Iterations: -1, Instances: -2, TargetCount: -3, Violations: -4,
	SimSeconds: -5.5, TargetRate: -6.5, Discarded: 7}

// decodeMismatch decodes data with Measurement.UnmarshalJSON, called
// directly, and with encoding/json on the method-less type, both from
// prefilled, and describes any difference in error-ness or value
// (floats compared by bits).
func decodeMismatch(data []byte) string {
	got, want := prefilled, prefilled
	gotErr := got.UnmarshalJSON(data)
	wantErr := json.Unmarshal(data, (*measurementJSON)(&want))
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("%q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if !sameMeasurement(got, want) {
		return fmt.Sprintf("%q: decoded %+v, encoding/json %+v", data, got, want)
	}
	return ""
}

func sameMeasurement(a, b Measurement) bool {
	return a.Iterations == b.Iterations && a.Instances == b.Instances &&
		a.TargetCount == b.TargetCount && a.Violations == b.Violations && a.Discarded == b.Discarded &&
		math.Float64bits(a.SimSeconds) == math.Float64bits(b.SimSeconds) &&
		math.Float64bits(a.TargetRate) == math.Float64bits(b.TargetRate)
}

// TestMeasurementDecodeLayout: every json.Marshal rendering of a
// measurement takes the direct parse, decodes to the marshalled value
// and allocates nothing; every input outside that layout is left to
// encoding/json and decodes exactly as it does.
func TestMeasurementDecodeLayout(t *testing.T) {
	for _, m := range []Measurement{
		{},
		{Iterations: 8, Instances: 5632, TargetCount: 1, SimSeconds: 0.0123, TargetRate: 81.3},
		{Iterations: 3, Discarded: 2, SimSeconds: 1e-7, TargetRate: 1e21},
		{Iterations: math.MinInt64, Instances: math.MaxInt64, TargetCount: -1, Violations: 9,
			SimSeconds: math.Copysign(0, -1), TargetRate: 5e-324, Discarded: math.MaxInt64},
		{SimSeconds: math.MaxFloat64, TargetRate: -math.MaxFloat64, Discarded: -1},
		{SimSeconds: 9.99e-7, TargetRate: 123456789.125},
	} {
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var zero Measurement
		got, ok := zero.decodeLayout(data)
		if !ok {
			t.Fatalf("%s: not decoded by its layout", data)
		}
		if !sameMeasurement(got, m) {
			t.Fatalf("%s: decoded %+v, want %+v", data, got, m)
		}
		if msg := decodeMismatch(data); msg != "" {
			t.Fatal(msg)
		}
		if raceEnabled {
			continue
		}
		var dst Measurement
		if n := testing.AllocsPerRun(100, func() {
			if err := dst.UnmarshalJSON(data); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%s: %v allocations per decode, want 0", data, n)
		}
	}

	for _, data := range []string{
		`{"family":"PTE","env_id":"PTE-001","env":{"TestingWorkgroups":2},"device":"AMD","test":"MP",` +
			`"mutator":"","is_mutant":false,"iterations":4,"instances":64,"target_count":0,"violations":0,` +
			`"sim_seconds":0.5,"target_rate":0}`,
		` {"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6} `,
		`{"iterations": 1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"instances":2,"iterations":1,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6,"iterations":9}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6,"discarded":1,"discarded":2}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6,"extra":true}`,
		`{"ITERATIONS":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":1.0,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":1e2,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":9223372036854775808,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":1e400,"target_rate":6}`,
		`{"iterations":01,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":.5,"target_rate":6}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5.,"target_rate":6}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6e}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":"6"}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":5,"target_rate":6}}`,
		`null`, `{}`, `[]`, ``,
	} {
		var zero Measurement
		if _, ok := zero.decodeLayout([]byte(data)); ok {
			t.Errorf("%q: decoded by the layout parser, want encoding/json", data)
		}
		if msg := decodeMismatch([]byte(data)); msg != "" {
			t.Error(msg)
		}
	}
}

// FuzzMeasurementDecode: for any input, Measurement.UnmarshalJSON
// called directly agrees with encoding/json on the method-less type,
// in error-ness and in value.
func FuzzMeasurementDecode(f *testing.F) {
	for _, seed := range []string{
		`{"iterations":8,"instances":5632,"target_count":1,"violations":0,"sim_seconds":0.0123,"target_rate":81.3}`,
		`{"iterations":-9223372036854775808,"instances":9223372036854775807,"target_count":0,"violations":0,` +
			`"sim_seconds":-0,"target_rate":5e-324,"discarded":3}`,
		`{"iterations":1,"instances":2,"target_count":3,"violations":4,"sim_seconds":1e+21,"target_rate":1E-7}`,
		`{"iterations":1.0,"instances":2,"target_count":3,"violations":4,"sim_seconds":1e400,"target_rate":6}`,
		`{"instances":2,"iterations":1}`, `null`, ` {} `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := decodeMismatch(data); msg != "" {
			t.Fatal(msg)
		}
	})
}

// BenchmarkMeasurementDecode compares the layout decoder with
// encoding/json on a cached measurement payload.
func BenchmarkMeasurementDecode(b *testing.B) {
	data := []byte(`{"iterations":8,"instances":5632,"target_count":1,"violations":0,` +
		`"sim_seconds":0.012345678901234,"target_rate":81.30000000000001}`)
	b.Run("layout", func(b *testing.B) {
		b.ReportAllocs()
		var m Measurement
		for i := 0; i < b.N; i++ {
			if err := m.UnmarshalJSON(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		var m measurementJSON
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(data, &m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
