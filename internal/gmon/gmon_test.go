package gmon

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

func sample() *profile.Sample {
	s := &profile.Sample{
		Seq:          3,
		Timestamp:    4 * time.Second,
		SamplePeriod: 10 * time.Millisecond,
		Funcs: []profile.FuncRecord{
			{Name: "run_bfs", Samples: 120, SelfTime: 1205 * time.Millisecond, Calls: 7},
			{Name: "make_one_edge", Samples: 30, SelfTime: 301 * time.Millisecond, Calls: 90000},
			{Name: "validate_bfs_result", Samples: 250, SelfTime: 2498 * time.Millisecond, Calls: 2},
		},
		Arcs: []profile.Arc{
			{Caller: "main", Callee: "run_bfs", Count: 7},
			{Caller: "main", Callee: "validate_bfs_result", Count: 2},
		},
	}
	s.Normalize()
	return s
}

// The package's init must contribute the gmon frontend to the registry, and
// its Detect must accept exactly the canonical and the GNU magic.
func TestFormatRegistration(t *testing.T) {
	f, ok := profile.Lookup("gmon")
	if !ok {
		t.Fatal("gmon format not registered")
	}
	if f.FilePrefix != "gmon.out." {
		t.Fatalf("prefix = %q", f.FilePrefix)
	}
	if !f.Detect([]byte(profile.Magic + "anything")) {
		t.Fatal("Detect rejects the canonical magic")
	}
	if !f.Detect([]byte("gmon\x01\x00\x00\x00")) {
		t.Fatal("Detect rejects the GNU gmon.out magic")
	}
	if f.Detect([]byte("Flat profile:")) || f.Detect([]byte("garb")) {
		t.Fatal("Detect accepts a foreign magic")
	}
	s := sample()
	var buf bytes.Buffer
	if err := f.Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := f.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || len(got.Funcs) != len(s.Funcs) {
		t.Fatalf("registry round trip: %+v", got)
	}
}

func TestFlatProfileFormat(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := FlatProfile(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Each sample counts as 0.01 seconds.") {
		t.Fatalf("missing sample-period line:\n%s", out)
	}
	// Sorted by self time descending: validate first.
	iv := strings.Index(out, "validate_bfs_result")
	ir := strings.Index(out, "run_bfs")
	im := strings.Index(out, "make_one_edge")
	if !(iv < ir && ir < im) || iv < 0 {
		t.Fatalf("rows not in descending self-time order:\n%s", out)
	}
}

func TestFlatProfileOmitsUnobservedFunctions(t *testing.T) {
	s := sample()
	s.Funcs = append(s.Funcs, profile.FuncRecord{Name: "never_ran"})
	s.Normalize()
	var buf bytes.Buffer
	if err := FlatProfile(&buf, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "never_ran") {
		t.Fatal("flat profile lists a function with no samples and no calls")
	}
}

func TestParseFlatProfileRoundTrip(t *testing.T) {
	s := sample()
	var buf bytes.Buffer
	if err := FlatProfile(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFlatProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq {
		t.Fatalf("seq = %d, want %d", got.Seq, s.Seq)
	}
	if got.Timestamp != s.Timestamp {
		t.Fatalf("timestamp = %v, want %v", got.Timestamp, s.Timestamp)
	}
	if got.SamplePeriod != s.SamplePeriod {
		t.Fatalf("period = %v, want %v", got.SamplePeriod, s.SamplePeriod)
	}
	for _, want := range s.Funcs {
		rec, ok := got.Func(want.Name)
		if !ok {
			t.Fatalf("parsed profile missing %s", want.Name)
		}
		if rec.Calls != want.Calls {
			t.Fatalf("%s calls = %d, want %d", want.Name, rec.Calls, want.Calls)
		}
		if rec.Samples != want.Samples {
			t.Fatalf("%s samples = %d, want %d (reconstructed from self seconds)", want.Name, rec.Samples, want.Samples)
		}
	}
}

func TestParseFlatProfileRejectsGarbage(t *testing.T) {
	if _, err := ParseFlatProfile(strings.NewReader("this is not a profile\n")); err == nil {
		t.Fatal("parsed garbage")
	}
}

func TestParseFlatProfileFunctionNameWithSpaces(t *testing.T) {
	s := &profile.Sample{
		Seq: 1, SamplePeriod: 10 * time.Millisecond,
		Funcs: []profile.FuncRecord{{Name: "operator new [abi:cxx11]", Samples: 5, Calls: 2}},
	}
	var buf bytes.Buffer
	if err := FlatProfile(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFlatProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Func("operator new [abi:cxx11]"); !ok {
		t.Fatalf("name with spaces not recovered: %+v", got.Funcs)
	}
}

// The flat profiles register as "gprof", a rendering of "gmon" under
// gprof.txt.N, and round-trip through the registry.
func TestGprofFormatRegistration(t *testing.T) {
	f, ok := profile.Lookup("gprof")
	if !ok {
		t.Fatal("gprof format not registered")
	}
	if f.FilePrefix != "gprof.txt." || f.RenderOf != "gmon" {
		t.Fatalf("prefix %q, renders %q", f.FilePrefix, f.RenderOf)
	}
	s := sample()
	var buf bytes.Buffer
	if err := f.Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	if g := profile.Sniff(buf.Bytes()); g != f {
		t.Fatalf("Sniff(flat profile) = %v", g)
	}
	got, err := f.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || len(got.Funcs) != len(s.Funcs) {
		t.Fatalf("registry round trip: %+v", got)
	}
	// A header without seq= leaves the number to the file name.
	got, err = f.Decode(strings.NewReader("Flat profile: t=1.000\n"))
	if err != nil || got.Seq != profile.SeqUnassigned {
		t.Fatalf("seq-less header: %+v, %v", got, err)
	}
}

// A flat profile carrying a value the canonical codec would reject — a
// negative, non-finite or out-of-range number — is corruption, not data.
func TestParseFlatProfileRejectsCorruptValues(t *testing.T) {
	row := func(self, calls string) string {
		return "Flat profile: seq=1 t=2.000\n\nEach sample counts as 0.01 seconds.\n" +
			"100.00 1.00 " + self + " " + calls + " 0.00  solve\n"
	}
	for _, tc := range []struct {
		name, text string
	}{
		{"negative seq", "Flat profile: seq=-4 t=1.000\n"},
		{"seq past int32", "Flat profile: seq=2147483648 t=1.000\n"},
		{"negative timestamp", "Flat profile: seq=0 t=-2.5\n"},
		{"NaN timestamp", "Flat profile: seq=0 t=NaN\n"},
		{"infinite timestamp", "Flat profile: seq=0 t=+Inf\n"},
		{"timestamp past Duration", "Flat profile: seq=0 t=1e300\n"},
		{"negative period", "Flat profile: seq=0 t=1.000\nEach sample counts as -0.01 seconds.\n"},
		{"NaN period", "Flat profile: seq=0 t=1.000\nEach sample counts as NaN seconds.\n"},
		{"period past Duration", "Flat profile: seq=0 t=1.000\nEach sample counts as 1e10 seconds.\n"},
		{"negative self", row("-5.00", "3")},
		{"NaN self", row("NaN", "3")},
		{"self past Duration", row("1e300", "3")},
		{"negative calls", row("1.00", "-3")},
		{"calls past int64", row("1.00", "9223372036854775808")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if s, err := ParseFlatProfile(strings.NewReader(tc.text)); err == nil {
				t.Fatalf("parsed %q as %+v", tc.text, s)
			}
		})
	}
	if _, err := ParseFlatProfile(strings.NewReader(row("0.50", "3"))); err != nil {
		t.Fatalf("the valid row of the table fails: %v", err)
	}
}
