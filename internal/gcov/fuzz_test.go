package gcov

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// FuzzDecodeJaCoCo hardens the JaCoCo frontend: on any bytes it must return
// an error or a sample with a non-negative header and non-negative
// counters, never panic, and allocate in proportion to its input.
func FuzzDecodeJaCoCo(f *testing.F) {
	var valid bytes.Buffer
	active := map[string]bool{"cg_solve": true, "init": false, "matvec": true}
	if err := WriteJaCoCoXML(&valid, "minife", 7, 8*time.Second, active); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`<report name="x"><sessioninfo id="x" start="-5" dump="-3"/></report>`))
	f.Add([]byte(`<report name="x"><sessioninfo id="x" start="NaN" dump="1"/></report>`))
	f.Add([]byte(`<report name="x"><sessioninfo id="x" start="1e300" dump="1"/></report>`))
	f.Add([]byte("not xml"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := DecodeJaCoCo(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, 1<<20+512*uint64(len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if s.Seq < 0 || s.Timestamp < 0 || s.SamplePeriod < 0 {
			t.Fatalf("bad header: seq %d, t %v, period %v", s.Seq, s.Timestamp, s.SamplePeriod)
		}
		for _, rec := range s.Funcs {
			if rec.Samples < 0 || rec.SelfTime < 0 || rec.Calls < 0 {
				t.Fatalf("negative counters: %+v", rec)
			}
		}
	})
}
