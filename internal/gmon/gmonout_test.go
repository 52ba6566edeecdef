package gmon

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

func TestSymbolLayoutAddressing(t *testing.T) {
	l := NewSymbolLayout([]string{"zeta", "alpha", "mid"})
	// Sorted order: alpha, mid, zeta.
	a, ok := l.Addr("alpha")
	if !ok || a != l.LowPC() {
		t.Fatalf("alpha addr = %#x", a)
	}
	if name, ok := l.Resolve(a); !ok || name != "alpha" {
		t.Fatalf("Resolve(alpha addr) = %q", name)
	}
	// Any address within the region resolves to the owner.
	if name, ok := l.Resolve(a + 0x10); !ok || name != "alpha" {
		t.Fatalf("mid-region resolve = %q", name)
	}
	if _, ok := l.Resolve(l.HighPC() + 1); ok {
		t.Fatal("resolved past the text segment")
	}
	if _, ok := l.Resolve(l.LowPC() - 1); ok {
		t.Fatal("resolved below the text segment")
	}
	if _, ok := l.Addr("missing"); ok {
		t.Fatal("found unknown symbol")
	}
	names := l.Names()
	if len(names) != 3 || names[0] != "alpha" || names[2] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestGmonOutRoundTrip(t *testing.T) {
	s := sample() // from gmon_test.go
	l := LayoutForSample(s)
	var buf bytes.Buffer
	if err := WriteGmonOut(&buf, s, l); err != nil {
		t.Fatal(err)
	}
	// Real gmon.out starts with the literal "gmon".
	if !bytes.HasPrefix(buf.Bytes(), []byte("gmon")) {
		t.Fatalf("wrong magic: % x", buf.Bytes()[:8])
	}
	got, err := ReadGmonOut(bytes.NewReader(buf.Bytes()), l)
	if err != nil {
		t.Fatal(err)
	}
	if got.SamplePeriod != s.SamplePeriod {
		t.Fatalf("sample period = %v, want %v", got.SamplePeriod, s.SamplePeriod)
	}
	// Samples survive exactly (all below the uint16 cap).
	for _, want := range s.Funcs {
		rec, ok := got.Func(want.Name)
		if want.Samples > 0 && (!ok || rec.Samples != want.Samples) {
			t.Fatalf("%s samples = %+v, want %d", want.Name, rec, want.Samples)
		}
	}
	// Arcs survive; per-function call counts are reconstructed from
	// incoming arcs (gprof's own derivation), so callees of recorded
	// arcs have counts.
	if len(got.Arcs) != len(s.Arcs) {
		t.Fatalf("arcs = %d, want %d", len(got.Arcs), len(s.Arcs))
	}
	rec, _ := got.Func("run_bfs")
	if rec.Calls != 7 {
		t.Fatalf("run_bfs calls from arcs = %d, want 7", rec.Calls)
	}
}

func TestGmonOutSaturatesHistogram(t *testing.T) {
	s := &profile.Sample{
		SamplePeriod: time.Millisecond,
		Funcs:        []profile.FuncRecord{{Name: "hot", Samples: 1_000_000}},
	}
	s.Normalize()
	l := LayoutForSample(s)
	var buf bytes.Buffer
	if err := WriteGmonOut(&buf, s, l); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGmonOut(bytes.NewReader(buf.Bytes()), l)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := got.Func("hot")
	if rec.Samples != 65535 {
		t.Fatalf("samples = %d, want saturation at 65535 (gprof's uint16 buckets)", rec.Samples)
	}
}

func TestGmonOutRejectsGarbage(t *testing.T) {
	l := NewSymbolLayout([]string{"f"})
	if _, err := ReadGmonOut(strings.NewReader("NOPE"), l); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Truncated header.
	if _, err := ReadGmonOut(strings.NewReader("gm"), l); err == nil {
		t.Fatal("accepted truncated magic")
	}
}

func TestGmonOutUnknownArcEndpoint(t *testing.T) {
	s := &profile.Sample{
		SamplePeriod: time.Millisecond,
		Arcs:         []profile.Arc{{Caller: "ghost", Callee: "f", Count: 1}},
		Funcs:        []profile.FuncRecord{{Name: "f", Samples: 1}},
	}
	s.Normalize()
	l := NewSymbolLayout([]string{"f"}) // ghost missing
	var buf bytes.Buffer
	if err := WriteGmonOut(&buf, s, l); err == nil {
		t.Fatal("wrote an arc with an unknown endpoint")
	}
}

// The full paper pipeline through the REAL gmon.out format: encode each
// interval dump as gmon.out bytes, decode, difference, and confirm the
// per-interval self times match the direct path.
func TestGmonOutPreservesIntervalAnalysis(t *testing.T) {
	cumulative := []*profile.Sample{
		snap(0, time.Second,
			profile.FuncRecord{Name: "init", Samples: 90, Calls: 3},
			profile.FuncRecord{Name: "solve", Samples: 10, Calls: 1}),
		snap(1, 2*time.Second,
			profile.FuncRecord{Name: "init", Samples: 90, Calls: 3},
			profile.FuncRecord{Name: "solve", Samples: 110, Calls: 1}),
	}
	// Give them arcs so call counts survive the format.
	for _, s := range cumulative {
		initRec, _ := s.Func("init")
		solveRec, _ := s.Func("solve")
		s.Arcs = []profile.Arc{
			{Caller: "main", Callee: "init", Count: initRec.Calls},
			{Caller: "main", Callee: "solve", Count: solveRec.Calls},
		}
		s.Normalize()
	}
	l := LayoutForSample(cumulative[0])
	var decoded []*profile.Sample
	for i, s := range cumulative {
		var buf bytes.Buffer
		if err := WriteGmonOut(&buf, s, l); err != nil {
			t.Fatal(err)
		}
		d, err := ReadGmonOut(bytes.NewReader(buf.Bytes()), l)
		if err != nil {
			t.Fatal(err)
		}
		d.Seq = i
		d.Timestamp = s.Timestamp
		decoded = append(decoded, d)
	}
	for i, d := range decoded {
		for _, name := range []string{"init", "solve"} {
			want, _ := cumulative[i].Func(name)
			got, _ := d.Func(name)
			if got.Samples != want.Samples {
				t.Fatalf("dump %d %s samples %d != %d", i, name, got.Samples, want.Samples)
			}
		}
	}
}

// snap builds a normalized snapshot for table-driven tests.
func snap(seq int, ts time.Duration, recs ...profile.FuncRecord) *profile.Sample {
	s := &profile.Sample{Seq: seq, Timestamp: ts, SamplePeriod: 10 * time.Millisecond, Funcs: recs}
	s.Normalize()
	return s
}

// writeGNU files s under dir as GNU gmon.out.N plus its symbols.out.N
// sidecar, and returns the dump's bytes.
func writeGNU(t testing.TB, dir string, s *profile.Sample) []byte {
	t.Helper()
	l := LayoutForSample(s)
	var side, dump bytes.Buffer
	if err := WriteSymbols(&side, s, l); err != nil {
		t.Fatal(err)
	}
	if err := WriteGmonOut(&dump, s, l); err != nil {
		t.Fatal(err)
	}
	seq := strconv.Itoa(s.Seq)
	if err := os.WriteFile(filepath.Join(dir, SymbolsPrefix+seq), side.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "gmon.out."+seq), dump.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dump.Bytes()
}

// The registered "gmon" format decodes a GNU gmon.out dump against the
// sidecar beside it, read as a companion file, and a canonical one as
// before.
func TestGmonFormatDecodesGNUDumps(t *testing.T) {
	f, _ := profile.Lookup("gmon")
	dir := t.TempDir()
	s := sample()
	data := writeGNU(t, dir, s)
	got, err := f.Decode(profile.NewDump(data, dir, s.Seq))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != profile.SeqUnassigned || got.Timestamp != s.Timestamp || got.SamplePeriod != s.SamplePeriod {
		t.Fatalf("header seq %d, t %v, period %v", got.Seq, got.Timestamp, got.SamplePeriod)
	}
	for _, want := range s.Funcs {
		rec, ok := got.Func(want.Name)
		if !ok || rec.Samples != want.Samples {
			t.Fatalf("%s: %+v, want %d samples", want.Name, rec, want.Samples)
		}
	}
	if rec, _ := got.Func("run_bfs"); rec.Calls != 7 {
		t.Fatalf("run_bfs calls %d, want 7 from its incoming arc", rec.Calls)
	}

	var canon bytes.Buffer
	if err := s.Encode(&canon); err != nil {
		t.Fatal(err)
	}
	if got, err := f.Decode(profile.NewDump(canon.Bytes(), dir, s.Seq)); err != nil || got.Seq != s.Seq {
		t.Fatalf("canonical dump: %+v, %v", got, err)
	}

	for _, tc := range []struct {
		name string
		dump []byte
		bare bool   // decode from a bytes.Reader, which has no companions
		side string // the sidecar's contents; "" writes none
		want string
	}{
		{"no companion reader", data, true, "", "needs its symbols.out.N sidecar"},
		{"sidecar missing", data, false, "", "reading the symbol sidecar"},
		{"sidecar without header", data, false, "run_bfs\n", "no header"},
		{"negative sidecar timestamp", data, false, "# t=-1 seq=3\nrun_bfs\n", "bad sidecar timestamp"},
		{"NaN sidecar timestamp", data, false, "# t=NaN seq=3\nrun_bfs\n", "bad sidecar timestamp"},
		{"sidecar timestamp past Duration", data, false, "# t=1e300 seq=3\nrun_bfs\n", "bad sidecar timestamp"},
		{"not GNU magic", []byte("garbage"), false, "", `profile: bad magic "garb"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.side != "" {
				if err := os.WriteFile(filepath.Join(dir, SymbolsPrefix+"3"), []byte(tc.side), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var r io.Reader = profile.NewDump(tc.dump, dir, 3)
			if tc.bare {
				r = bytes.NewReader(tc.dump)
			}
			_, err := f.Decode(r)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want it to contain %q", err, tc.want)
			}
		})
	}
}
