package gmon

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/incprof/incprof/internal/profile"
)

// FuzzDecode for the canonical binary codec lives in internal/profile now;
// this file keeps the fuzzers for the gprof-specific text and gmon.out
// containers.

// FuzzParseFlatProfile hardens the gprof-text parser.
func FuzzParseFlatProfile(f *testing.F) {
	s := sample()
	var buf bytes.Buffer
	if err := FlatProfile(&buf, s); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("Flat profile: seq=0 t=1.0\nEach sample counts as 0.01 seconds.\n")
	f.Add("garbage\n")
	f.Add("Flat profile: seq=-4 t=NaN\nEach sample counts as -0.01 seconds.\n100.00 1.00 1e300 -3 0.00  f\n")
	f.Fuzz(func(t *testing.T, text string) {
		snap, err := ParseFlatProfile(strings.NewReader(text))
		if err == nil {
			if snap == nil {
				t.Fatal("nil snapshot with nil error")
			}
			checkSample(t, snap)
		}
	})
}

// checkSample fails unless a decoded sample holds only what the canonical
// codec would accept: non-negative header fields and counters.
func checkSample(t *testing.T, s *profile.Sample) {
	t.Helper()
	if (s.Seq < 0 && s.Seq != profile.SeqUnassigned) || s.Timestamp < 0 || s.SamplePeriod < 0 {
		t.Fatalf("bad header: seq %d, t %v, period %v", s.Seq, s.Timestamp, s.SamplePeriod)
	}
	for _, rec := range s.Funcs {
		if rec.Samples < 0 || rec.SelfTime < 0 || rec.Calls < 0 {
			t.Fatalf("negative counters: %+v", rec)
		}
	}
}

// FuzzGmonFrontend drives the registered "gmon" format the way the dump
// readers do — a dump and its symbols.out.N sidecar, the sidecar read as a
// companion file — over arbitrary byte pairs. It must error or return a
// valid sample, never panic, and allocate in proportion to its input.
func FuzzGmonFrontend(f *testing.F) {
	format, _ := profile.Lookup("gmon")
	s := sample()
	l := LayoutForSample(s)
	var side, dump, canon bytes.Buffer
	if err := WriteSymbols(&side, s, l); err != nil {
		f.Fatal(err)
	}
	if err := WriteGmonOut(&dump, s, l); err != nil {
		f.Fatal(err)
	}
	if err := s.Encode(&canon); err != nil {
		f.Fatal(err)
	}
	f.Add(dump.Bytes(), side.Bytes())
	f.Add(canon.Bytes(), side.Bytes())
	f.Add(dump.Bytes(), []byte("# t=NaN\nrun_bfs\n"))
	f.Add([]byte("gmon\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\x3f\x00"), side.Bytes())
	f.Fuzz(func(t *testing.T, data, sidecar []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SymbolsPrefix+"0"), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := format.Decode(profile.NewDump(data, dir, 0))
		runtime.ReadMemStats(&after)
		if n := len(data) + len(sidecar); after.TotalAlloc-before.TotalAlloc > allocLimit(n) {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", n, after.TotalAlloc-before.TotalAlloc, allocLimit(n))
		}
		if err == nil {
			if snap == nil {
				t.Fatal("nil snapshot with nil error")
			}
			checkSample(t, snap)
		}
	})
}

// allocLimit is what a decode may allocate for an n-byte input: a fixed
// allowance plus a constant factor of the input.
func allocLimit(n int) uint64 { return 1<<20 + 512*uint64(n) }

// FuzzReadGmonOut hardens the real-format reader.
func FuzzReadGmonOut(f *testing.F) {
	s := sample()
	l := LayoutForSample(s)
	var buf bytes.Buffer
	if err := WriteGmonOut(&buf, s, l); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("gmon\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		layout := NewSymbolLayout([]string{"a", "b", "c"})
		snap, err := ReadGmonOut(bytes.NewReader(data), layout)
		if err == nil {
			if snap == nil {
				t.Fatal("nil snapshot with nil error")
			}
			checkSample(t, snap)
			_ = snap.TotalSampledSelf()
		}
	})
}
