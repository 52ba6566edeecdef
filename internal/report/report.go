// Package report renders the evaluation's tables and figures as aligned
// text, CSV, and ASCII time-series plots. The evaluation harness (package
// harness) builds Table I-VI and Figure 2-6 equivalents with it.
package report

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Table is a column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends one row; missing cells render empty, extras are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(bw, t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				bw.WriteString("  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], cell)
		}
		bw.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	fmt.Fprintln(bw, strings.Repeat("-", total))
	for _, row := range t.rows {
		writeRow(row)
	}
	return bw.Flush()
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("report: render failed: %v", err)
	}
	return b.String()
}

// Series is one named time series over intervals; missing intervals hold
// NaN-free zeros by construction (callers fill a dense slice).
type Series struct {
	Name   string
	Values []float64
}

// WriteSeriesCSV writes interval-indexed series as CSV with one column per
// series. Shorter series are zero-padded to the longest.
func WriteSeriesCSV(w io.Writer, series []Series) error {
	bw := bufio.NewWriter(w)
	n := 0
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
	}
	bw.WriteString("interval")
	for _, s := range series {
		fmt.Fprintf(bw, ",%s", strings.ReplaceAll(s.Name, ",", ";"))
	}
	bw.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(bw, "%d", i)
		for _, s := range series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			fmt.Fprintf(bw, ",%.6g", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// asciiLevels maps a normalized value to a glyph, darkest = largest.
const asciiLevels = " .:-=+*#%@"

// RenderASCIISeries draws each series as one row of glyphs, value-scaled to
// the series' own maximum, over a shared interval axis compressed to width
// columns. It is the terminal stand-in for the paper's heartbeat figures:
// phase structure appears as runs of activity and gaps.
func RenderASCIISeries(w io.Writer, title string, series []Series, width int) error {
	if width <= 0 {
		width = 100
	}
	bw := bufio.NewWriter(w)
	if title != "" {
		fmt.Fprintln(bw, title)
	}
	n := 0
	nameW := 0
	for _, s := range series {
		if len(s.Values) > n {
			n = len(s.Values)
		}
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	if n == 0 {
		fmt.Fprintln(bw, "(no data)")
		return bw.Flush()
	}
	if width > n {
		width = n
	}
	for _, s := range series {
		max := 0.0
		for _, v := range s.Values {
			if v > max {
				max = v
			}
		}
		fmt.Fprintf(bw, "%-*s |", nameW, s.Name)
		for col := 0; col < width; col++ {
			// Each column aggregates a bucket of intervals by max.
			lo := col * n / width
			hi := (col + 1) * n / width
			if hi == lo {
				hi = lo + 1
			}
			bucket := 0.0
			for i := lo; i < hi && i < len(s.Values); i++ {
				if s.Values[i] > bucket {
					bucket = s.Values[i]
				}
			}
			idx := 0
			if max > 0 {
				idx = int(bucket / max * float64(len(asciiLevels)-1))
			}
			bw.WriteByte(asciiLevels[idx])
		}
		fmt.Fprintf(bw, "| max=%.3g\n", max)
	}
	fmt.Fprintf(bw, "%-*s  0%s%d intervals\n", nameW, "", strings.Repeat(" ", maxInt(0, width-len(fmt.Sprint(n))-1)), n)
	return bw.Flush()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// phaseGlyphs label phases 0-61 in timeline bands.
const phaseGlyphs = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// RenderPhaseTimeline draws per-interval phase membership as one glyph row:
// the at-a-glance view of where each phase lives in the run. assign maps
// interval index to phase ID (negative = unassigned, rendered '.'); the row
// is compressed to width columns by majority vote per bucket.
func RenderPhaseTimeline(w io.Writer, title string, assign []int, width int) error {
	bw := bufio.NewWriter(w)
	if title != "" {
		fmt.Fprintln(bw, title)
	}
	n := len(assign)
	if n == 0 {
		fmt.Fprintln(bw, "(no intervals)")
		return bw.Flush()
	}
	if width <= 0 || width > n {
		width = n
	}
	bw.WriteString("phases |")
	for col := 0; col < width; col++ {
		lo := col * n / width
		hi := (col + 1) * n / width
		if hi == lo {
			hi = lo + 1
		}
		// Majority phase in the bucket.
		votes := map[int]int{}
		best, bestN := -1, 0
		for i := lo; i < hi && i < n; i++ {
			votes[assign[i]]++
			if votes[assign[i]] > bestN {
				best, bestN = assign[i], votes[assign[i]]
			}
		}
		switch {
		case best < 0:
			bw.WriteByte('.')
		case best < len(phaseGlyphs):
			bw.WriteByte(phaseGlyphs[best])
		default:
			bw.WriteByte('?')
		}
	}
	fmt.Fprintf(bw, "| %d intervals\n", n)
	return bw.Flush()
}
