package gcov

import (
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/phase"
)

func TestBooleanProfilesDropMagnitudes(t *testing.T) {
	rt := exec.New(nil)
	c := New(rt, time.Second)
	heavy := rt.Register("heavy")
	light := rt.Register("light")
	rt.Call(heavy, func() { rt.Work(900 * time.Millisecond) })
	rt.Call(light, func() { rt.Work(100 * time.Millisecond) })
	c.Close()
	profs, err := BooleanProfiles(c.Snapshots())
	if err != nil {
		t.Fatal(err)
	}
	p := profs[0]
	if p.Self["heavy"] != p.Self["light"] {
		t.Fatalf("boolean coverage kept magnitudes: %v vs %v", p.Self["heavy"], p.Self["light"])
	}
	if p.Calls["heavy"] != 1 || p.Calls["light"] != 1 {
		t.Fatalf("calls not unit: %v", p.Calls)
	}
}

func TestBooleanProfilesStillSeparatePhases(t *testing.T) {
	// Distinct function SETS per phase survive boolean reduction.
	rt := exec.New(nil)
	c := New(rt, time.Second)
	init := rt.Register("init")
	solve := rt.Register("solve")
	for i := 0; i < 8; i++ {
		rt.Call(init, func() { rt.Work(time.Second) })
	}
	for i := 0; i < 12; i++ {
		rt.Call(solve, func() { rt.Work(time.Second) })
	}
	c.Close()
	profs, err := BooleanProfiles(c.Snapshots())
	if err != nil {
		t.Fatal(err)
	}
	det, err := phase.Detect(profs, phase.Options{Cluster: cluster.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Phases) != 2 {
		t.Fatalf("boolean detection phases = %d, want 2", len(det.Phases))
	}
}

func TestJaCoCoXMLRoundTrip(t *testing.T) {
	active := map[string]bool{
		"cg_solve":    true,
		"init_matrix": false,
		"matvec":      true,
	}
	var b strings.Builder
	if err := WriteJaCoCoXML(&b, "minife", 7, 8*time.Second, active); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"<report", `name="minife"`, `type="METHOD"`, "cg_solve"} {
		if !strings.Contains(out, want) {
			t.Fatalf("xml missing %q:\n%s", want, out)
		}
	}
	got, dump, ts, err := ParseJaCoCoXML(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if dump != 7 || ts != 8*time.Second {
		t.Fatalf("dump=%d ts=%v", dump, ts)
	}
	if len(got) != 3 || !got["cg_solve"] || got["init_matrix"] || !got["matvec"] {
		t.Fatalf("activity = %v", got)
	}
}

func TestParseJaCoCoXMLRejectsGarbage(t *testing.T) {
	if _, _, _, err := ParseJaCoCoXML(strings.NewReader("not xml")); err == nil {
		t.Fatal("parsed garbage")
	}
}

// A corrupt session header is an error, not a negative Seq or a wrapped
// Timestamp: a negative dump, and a start that is negative, not a number,
// or past the Duration range.
func TestDecodeJaCoCoRejectsCorruptHeaders(t *testing.T) {
	for _, session := range []string{
		`<sessioninfo id="x" start="-5" dump="-3"/>`,
		`<sessioninfo id="x" start="NaN" dump="1"/>`,
		`<sessioninfo id="x" start="1e300" dump="1"/>`,
	} {
		doc := `<report name="x">` + session + `<package name="x"><class><method name="f"><counter type="METHOD" missed="0" covered="1"/></method></class></package></report>`
		if s, err := DecodeJaCoCo(strings.NewReader(doc)); err == nil {
			t.Errorf("%s decoded to seq %d, timestamp %v; want an error", session, s.Seq, s.Timestamp)
		}
	}
}
