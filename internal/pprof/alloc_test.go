// alloc_test.go holds Decode to its allocation budget on a symbol-rich dump:
// the string table stays sub-slices of the pooled payload, samples live in
// flat arrays, so the allocations left are the function names and a
// constant few per dump.
package pprof

import (
	"bytes"
	"testing"
)

func TestDecodeAllocsPerFunction(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates")
	}
	raw := encoded(t, symbolRich(1100))
	var funcs int
	allocs := testing.AllocsPerRun(20, func() {
		s, err := Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		funcs = len(s.Funcs)
	})
	if perFunc := allocs / float64(funcs); perFunc > 2 {
		t.Fatalf("Decode made %.0f allocations for %d functions (%.2f each), want at most 2 each", allocs, funcs, perFunc)
	}
}

// BenchmarkDecodeSymbolRich decodes a 1,100-function dump named like a
// symbol-rich Go service's.
func BenchmarkDecodeSymbolRich(b *testing.B) {
	raw := encoded(b, symbolRich(1100))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
