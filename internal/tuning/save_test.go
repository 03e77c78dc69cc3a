package tuning

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gpu"
)

// encoderBytes is the reference rendering Save must reproduce:
// json.Encoder with SetIndent("", " ").
func encoderBytes(t testing.TB, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveMatchesEncoder is the differential test of Save's record
// appender and environment memo against encoding/json's indenting
// encoder, on datasets that exercise every optional field, string
// escapes (quote, backslash, HTML-escaped <, & and non-ASCII), a
// fault-model config, empty or absent record lists, records that share
// an EnvID but not an environment, discarded iterations, every shape of
// the device list, floats at the edges of encoding/json's format, and
// the NaN and infinite floats on which both must fail.
func TestSaveMatchesEncoder(t *testing.T) {
	base := dataset(t)
	withFailures := *base
	withFailures.Dropped = []DroppedRecord{
		{Key: "PTE/AMD/MP/env-1", Device: "AMD", Error: `launch "failed" at C:\gpu <0x1f> & retried — naïve ✓`, Quarantined: true, Attempts: 3},
		{Key: "SITE/Intel/SB/env-0", Device: "Intel", Error: "hang\n\ttimeout"},
	}
	withFailures.Interrupted = true
	withFailures.StorageDegraded = true
	withFailures.StorageErr = `write "ckpt": no space left on device \ <disk> & ünïcode`

	fm := gpu.UniformFaults(7, 0.05)
	fm.WatchdogTicks = 4096
	faulted := *base
	faulted.Config.Faults = &fm

	empty := Dataset{Config: SmallConfig(), Records: []Record{}}
	absent := Dataset{Config: SmallConfig()}

	// Save memoizes environments by value, never by EnvID: two records
	// claiming one EnvID must still render their own environments.
	sharedID := withRecords(base, base.Records[:2])
	sharedID.Records[1].EnvID = sharedID.Records[0].EnvID
	sharedID.Records[1].Env = base.Records[len(base.Records)-1].Env
	if sharedID.Records[0].Env == sharedID.Records[1].Env {
		t.Fatal("fixture: the two environments are equal")
	}

	discarded := withRecords(base, base.Records[:3])
	discarded.Records[0].Discarded = 1
	discarded.Records[2].Discarded = 1 << 40

	cases := map[string]*Dataset{
		"study":            base,
		"failures":         &withFailures,
		"faults":           &faulted,
		"empty records":    &empty,
		"absent records":   &absent,
		"shared env id":    sharedID,
		"discarded":        discarded,
		"edge floats":      withFloats(base, edgeFloats...),
		"escaped strings":  withStrings(base, escapeStrings...),
		"every field set":  everyField(t, base),
		"all zero records": withRecords(base, make([]Record, 3)),
	}
	for name, devices := range map[string][]string{
		"nil devices":   nil,
		"empty devices": {},
		"devices":       {"AMD", "Intel", `dev "<&>"`},
	} {
		ds := *base
		ds.Config.Devices = devices
		cases[name] = &ds
	}
	// Floats json.Marshal refuses, in a record and in the config.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sim := withRecords(base, base.Records)
		sim.Records[len(sim.Records)/2].SimSeconds = f
		cases[fmt.Sprintf("sim_seconds %v", f)] = sim
		rate := withRecords(base, base.Records)
		rate.Records[len(rate.Records)-1].TargetRate = f
		cases[fmt.Sprintf("target_rate %v", f)] = rate
	}
	nanFaults := gpu.UniformFaults(7, math.NaN())
	badConfig := *base
	badConfig.Config.Faults = &nanFaults
	cases["NaN fault rate"] = &badConfig

	for name, ds := range cases {
		if msg := saveMismatch(ds); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
}

// saveMismatch describes how Save's rendering of ds departs from the
// indenting encoder's, or returns "" when the bytes are equal. Where the
// encoder fails, Save must fail with its error and write nothing.
func saveMismatch(ds *Dataset) string {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", " ")
	wantErr := enc.Encode(ds)
	var got bytes.Buffer
	err := ds.Save(&got)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
			return fmt.Sprintf("Save wrote %d bytes and returned %v; want nothing written and %v",
				got.Len(), err, wantErr)
		}
	case err != nil:
		return fmt.Sprintf("Save: %v", err)
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		return fmt.Sprintf("Save differs from the indenting encoder at byte %d of %d:\n got %q\nwant %q",
			firstDiff(got.Bytes(), want.Bytes()), want.Len(), tail(got.Bytes(), want.Bytes()), tail(want.Bytes(), got.Bytes()))
	}
	return ""
}

// tail is a from the first byte where it differs from b, cut to 80
// bytes.
func tail(a, b []byte) []byte {
	a = a[firstDiff(a, b):]
	return a[:min(len(a), 80)]
}

// edgeFloats sit on and around the boundaries where encoding/json
// switches between its fixed and exponent formats.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.99e-7, -1e-6, 1e20, 1e21, -1e21, 123456789e12,
	5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64 * 3,
	1e-7, 1.5e-10, 1e-100, 1e100, 0.1, 1.0 / 3, 81.3, 1 << 53, 1<<53 + 1,
}

// escapeStrings need every kind of escape encoding/json writes, plus
// plain strings on either side of the fast path's boundaries.
var escapeStrings = []string{
	"", "MP-relacq", "reversing po-loc", "~\x7f", `q"uote`, `back\slash`,
	"<", ">", "&", "tab\there", "\x00\x1f", "naïve", "\u2028\u2029", "\xff\xfe", "✓",
}

// withRecords copies ds with its own copy of records.
func withRecords(ds *Dataset, records []Record) *Dataset {
	out := *ds
	out.Records = append([]Record(nil), records...)
	return &out
}

// withFloats copies ds with one record per float, each used as both
// of the record's floats.
func withFloats(ds *Dataset, fs ...float64) *Dataset {
	out := withRecords(ds, nil)
	for i, f := range fs {
		r := ds.Records[i%len(ds.Records)]
		r.SimSeconds, r.TargetRate = f, -f
		out.Records = append(out.Records, r)
	}
	return out
}

// withStrings copies ds with one record per string, each used in
// every string field of the record.
func withStrings(ds *Dataset, ss ...string) *Dataset {
	out := withRecords(ds, nil)
	for i, s := range ss {
		r := ds.Records[i%len(ds.Records)]
		r.Family, r.EnvID, r.Device, r.Test, r.Mutator = s, s, s, s, s
		out.Records = append(out.Records, r)
	}
	return out
}

// everyField copies ds with one record whose every field is non-zero,
// set by reflection so that a field added to Record without a place in
// Record.appendJSON fails the comparison.
func everyField(t *testing.T, ds *Dataset) *Dataset {
	r := ds.Records[len(ds.Records)-1]
	v := reflect.ValueOf(&r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case reflect.Int:
			f.SetInt(int64(7 + i))
		case reflect.Float64:
			f.SetFloat(0.25 + float64(i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Struct:
			// The environment: a real one from the study.
		default:
			t.Fatalf("Record.%s: no test value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return withRecords(ds, []Record{r})
}

// TestSaveAllocsIndependentOfRecords checks that Save's allocations
// depend on the number of distinct environments, not on the number of
// records: records are appended without allocating, and each
// environment is rendered once.
func TestSaveAllocsIndependentOfRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	base := dataset(t)
	allocs := func(n int) float64 {
		ds := withRecords(base, nil)
		for i := 0; i < n; i++ {
			ds.Records = append(ds.Records, base.Records[i%len(base.Records)])
		}
		return testing.AllocsPerRun(5, func() {
			if err := ds.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4*len(base.Records)), allocs(64*len(base.Records))
	if large > small {
		t.Errorf("Save allocs/op: %v at %d records, %v at %d records; want no growth",
			small, 4*len(base.Records), large, 64*len(base.Records))
	}
}

// FuzzSaveRecord checks a one-record dataset's rendering against the
// indenting encoder for any strings, integers, floats and flags. Values
// json.Marshal refuses must make Save fail too.
func FuzzSaveRecord(f *testing.F) {
	f.Add("PTE", "PTE-001", "AMD", "MP-relacq", "reversing po", true, 8, 5632, 1, 0, 0, 0.0123, 81.3)
	f.Add("", "", "", "", "", false, 0, 0, 0, 0, 0, 0.0, 0.0)
	f.Add("<&>", "\"\\", "\u2028", "\xff", "naïve", true, -1, math.MaxInt, math.MinInt, 3, 9, 9.99e-7, 1e21)
	f.Add("a", "b", "c", "d", "e", false, 1, 2, 3, 4, 5, math.Copysign(0, -1), math.MaxFloat64)
	f.Add("a", "b", "c", "d", "e", false, 1, 2, 3, 4, 5, math.NaN(), math.Inf(1))
	base := dataset(f)
	f.Fuzz(func(t *testing.T, family, envID, device, test, mutator string, isMutant bool,
		iterations, instances, targetCount, violations, discarded int, simSeconds, targetRate float64) {
		r := base.Records[len(family)%len(base.Records)]
		r.Family, r.EnvID, r.Device, r.Test, r.Mutator, r.IsMutant = family, envID, device, test, mutator, isMutant
		r.Iterations, r.Instances, r.TargetCount, r.Violations, r.Discarded = iterations, instances, targetCount, violations, discarded
		r.SimSeconds, r.TargetRate = simSeconds, targetRate
		if msg := saveMismatch(withRecords(base, []Record{r})); msg != "" {
			t.Fatal(msg)
		}
	})
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzIndent checks indent against json.Indent on the compact
// rendering of any valid JSON document, at the top level and nested
// three levels deep (json.Indent with a three-space prefix). The seed
// corpus runs under plain go test.
func FuzzIndent(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `{"a":{}}`, `[[],{}]`, `{"a":[{},[[]],{"b":{}}]}`,
		`"x"`, `1`, `null`, `[1,"two",true,null,-3.5e+7]`,
		`{"q":"end\""}`, `{"q\"":"\\"}`, `["\\\"",""]`, `{"":"\"\\\""}`,
		`{"s":"a,b:c{d}[e]"}`, `{"u":"\u003c\u0026\u2028é"}`,
		"{\"ws\" : [ 1 ,\n 2 ] }",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var src bytes.Buffer
		if err := json.Compact(&src, data); err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{0, 3} {
			var want bytes.Buffer
			if err := json.Indent(&want, src.Bytes(), strings.Repeat(" ", depth), " "); err != nil {
				t.Fatal(err)
			}
			if got := indent(nil, src.Bytes(), depth); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("indent(%s, %d):\n got %q\nwant %q", src.Bytes(), depth, got, want.Bytes())
			}
		}
	})
}

// BenchmarkDatasetSave measures writing a 4,352-record dataset, the
// size of the warm tuning benchmark's study.
func BenchmarkDatasetSave(b *testing.B) {
	base := dataset(b)
	ds := &Dataset{Config: base.Config, Records: make([]Record, 4352)}
	for i := range ds.Records {
		r := base.Records[i%len(base.Records)]
		r.EnvID = fmt.Sprintf("%s-%d", r.EnvID, i)
		ds.Records[i] = r
	}
	b.SetBytes(int64(len(encoderBytes(b, ds))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
