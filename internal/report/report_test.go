package report

import (
	"strings"
	"testing"
)

func TestTableRenderAligned(t *testing.T) {
	tb := NewTable("TABLE X", "App", "Runtime (s)", "Phases")
	tb.AddRow("graph500", "188", "4")
	tb.AddRow("minife", "617", "5")
	out := tb.String()
	if !strings.Contains(out, "TABLE X") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "Runtime (s)" starts at the same offset in header
	// and rows.
	hdr := strings.Index(lines[1], "Runtime")
	row := strings.Index(lines[3], "188")
	if hdr != row {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1")           // short: padded
	tb.AddRow("1", "2", "3") // long: truncated
	out := tb.String()
	if strings.Contains(out, "3") {
		t.Fatalf("extra cell not dropped:\n%s", out)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var b strings.Builder
	err := WriteSeriesCSV(&b, []Series{
		{Name: "hb1", Values: []float64{1, 2, 3}},
		{Name: "hb2", Values: []float64{5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "interval,hb1,hb2\n0,1,5\n1,2,0\n2,3,0\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestWriteSeriesCSVEscapesCommas(t *testing.T) {
	var b strings.Builder
	if err := WriteSeriesCSV(&b, []Series{{Name: "a,b", Values: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "a;b") {
		t.Fatalf("comma not escaped: %q", b.String())
	}
}

func TestRenderASCIISeriesShape(t *testing.T) {
	vals := make([]float64, 50)
	for i := 25; i < 50; i++ {
		vals[i] = 1 // active only in the second half
	}
	var b strings.Builder
	err := RenderASCIISeries(&b, "Fig", []Series{{Name: "hb", Values: vals}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "hb") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("series row missing:\n%s", out)
	}
	body := line[strings.Index(line, "|")+1 : strings.LastIndex(line, "|")]
	firstHalf := body[:len(body)/2]
	secondHalf := body[len(body)/2:]
	if strings.Trim(firstHalf, " ") != "" {
		t.Fatalf("inactive region not blank: %q", firstHalf)
	}
	if !strings.Contains(secondHalf, "@") {
		t.Fatalf("active region not dark: %q", secondHalf)
	}
}

func TestRenderASCIISeriesEmpty(t *testing.T) {
	var b strings.Builder
	if err := RenderASCIISeries(&b, "Fig", nil, 80); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no data") {
		t.Fatalf("empty render: %q", b.String())
	}
}

func TestRenderASCIISeriesZeroSeries(t *testing.T) {
	var b strings.Builder
	err := RenderASCIISeries(&b, "", []Series{{Name: "z", Values: []float64{0, 0, 0}}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "max=0") {
		t.Fatalf("zero series: %q", b.String())
	}
}

func TestRenderPhaseTimeline(t *testing.T) {
	assign := make([]int, 30)
	for i := 10; i < 20; i++ {
		assign[i] = 1
	}
	for i := 20; i < 30; i++ {
		assign[i] = 2
	}
	var b strings.Builder
	if err := RenderPhaseTimeline(&b, "timeline", assign, 30); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "0000000000111111111122222222") {
		t.Fatalf("timeline bands wrong:\n%s", out)
	}
}

func TestRenderPhaseTimelineUnassignedAndEmpty(t *testing.T) {
	var b strings.Builder
	if err := RenderPhaseTimeline(&b, "", []int{-1, 0}, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), ".0") {
		t.Fatalf("unassigned glyph missing: %q", b.String())
	}
	b.Reset()
	if err := RenderPhaseTimeline(&b, "", nil, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no intervals") {
		t.Fatalf("empty render: %q", b.String())
	}
}
