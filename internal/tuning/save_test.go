package tuning

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// TestSaveMatchesEncoder is the differential test of Save's one-pass
// indenter against encoding/json's indenting encoder, on datasets that
// exercise every optional field, string escapes (quote, backslash,
// HTML-escaped <, & and non-ASCII), a fault-model config and empty or
// absent record lists.
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

	for name, ds := range map[string]*Dataset{
		"study":          base,
		"failures":       &withFailures,
		"faults":         &faulted,
		"empty records":  &empty,
		"absent records": &absent,
	} {
		var got bytes.Buffer
		if err := ds.Save(&got); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if want := encoderBytes(t, ds); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: Save differs from the indenting encoder at byte %d of %d",
				name, firstDiff(got.Bytes(), want), len(want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzIndent checks indent against json.Indent(…, "", " ") on the
// compact rendering of any valid JSON document. The seed corpus runs
// under plain go test.
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
		var want bytes.Buffer
		if err := json.Indent(&want, src.Bytes(), "", " "); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		bw := bufio.NewWriter(&got)
		indent(bw, src.Bytes())
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("indent(%s):\n got %q\nwant %q", src.Bytes(), got.Bytes(), want.Bytes())
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
