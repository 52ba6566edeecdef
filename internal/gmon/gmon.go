// Package gmon is the gprof frontend: the first registered profile.Format.
// It models what the gprof toolchain produces around the cumulative profile
// dumps the paper's IncProf collector forces out once per interval (the
// gmon.out files), and decodes all of it into the format-neutral
// profile.Sample the analysis core consumes.
//
// Three serializations live here, mirroring the paper's workflow of writing
// binary gmon files and then running the gprof command-line tool to obtain
// a textual flat profile which is then parsed:
//
//   - the dump files themselves: gmon.out.N in the repository's canonical
//     binary sample encoding (profile.Encode/Decode), registered with the
//     format registry under the name "gmon";
//   - the real GNU gmon.out wire format (WriteGmonOut / ReadGmonOut), with
//     exactly a real gprof pipeline's information loss. Its dumps share the
//     gmon.out.N names, so the "gmon" format decodes them too, against the
//     symbols.out.N sidecar written beside each; and
//   - the gprof-like textual reports (FlatProfile / ParseFlatProfile and
//     CallGraphReport). The flat profiles, gprof.txt.N, are registered as
//     the "gprof" format, a rendering of "gmon".
package gmon

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/incprof/incprof/internal/profile"
)

func init() {
	profile.Register(&profile.Format{
		Name:       "gmon",
		FilePrefix: "gmon.out.",
		Detect: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte(profile.Magic)) || bytes.HasPrefix(data, gmonMagic[:])
		},
		Decode: decode,
		Encode: func(w io.Writer, s *profile.Sample) error { return s.Encode(w) },
	})
	profile.Register(&profile.Format{
		Name:       "gprof",
		FilePrefix: "gprof.txt.",
		Detect: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte(flatHeader))
		},
		Decode:   ParseFlatProfile,
		Encode:   FlatProfile,
		RenderOf: "gmon",
	})
}

// flatHeader opens every flat profile.
const flatHeader = "Flat profile:"

// FlatProfile renders the sample as a gprof-style flat profile. Functions
// with zero samples and zero calls are omitted, as gprof omits functions
// never observed ("not all functions in a program end up being represented
// in the profile data", paper §V-A footnote).
func FlatProfile(w io.Writer, s *profile.Sample) error {
	type row struct {
		rec  profile.FuncRecord
		self float64 // seconds
	}
	rows := make([]row, 0, len(s.Funcs))
	var totalSelf float64
	for _, f := range s.Funcs {
		if f.Samples == 0 && f.Calls == 0 {
			continue
		}
		self := s.SampledSelf(f).Seconds()
		rows = append(rows, row{rec: f, self: self})
		totalSelf += self
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		if rows[i].rec.Calls != rows[j].rec.Calls {
			return rows[i].rec.Calls > rows[j].rec.Calls
		}
		return rows[i].rec.Name < rows[j].rec.Name
	})
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, flatHeader+" seq=%d t=%.3f\n\n", s.Seq, s.Timestamp.Seconds())
	fmt.Fprintf(bw, "Each sample counts as %g seconds.\n", s.SamplePeriod.Seconds())
	fmt.Fprintf(bw, "  %%   cumulative   self              self\n")
	fmt.Fprintf(bw, " time   seconds   seconds    calls  ms/call  name\n")
	var cum float64
	for _, r := range rows {
		cum += r.self
		pct := 0.0
		if totalSelf > 0 {
			pct = 100 * r.self / totalSelf
		}
		msPerCall := 0.0
		if r.rec.Calls > 0 {
			msPerCall = 1000 * r.self / float64(r.rec.Calls)
		}
		fmt.Fprintf(bw, "%6.2f %10.2f %9.2f %8d %8.2f  %s\n",
			pct, cum, r.self, r.rec.Calls, msPerCall, r.rec.Name)
	}
	return bw.Flush()
}

// ParseFlatProfile parses text produced by FlatProfile back into a sample.
// Only the data the paper's analysis consumes — per-function self time and
// call counts — is recovered; arcs and exact self time are not present in a
// flat profile. Sample counts are reconstructed from self seconds and the
// sample period in the header. A header without seq= leaves Seq
// unassigned. Negative, non-finite and out-of-range values are corruption,
// as in the canonical encoding, and fail the parse.
func ParseFlatProfile(r io.Reader) (*profile.Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	s := &profile.Sample{Seq: profile.SeqUnassigned}
	sawHeader := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, flatHeader):
			fields := strings.Fields(line)
			for _, f := range fields {
				if v, ok := strings.CutPrefix(f, "seq="); ok {
					n, err := strconv.Atoi(v)
					if err != nil || n < 0 || n > math.MaxInt32 {
						return nil, fmt.Errorf("gmon: bad seq %q", v)
					}
					s.Seq = n
				}
				if v, ok := strings.CutPrefix(f, "t="); ok {
					sec, err := strconv.ParseFloat(v, 64)
					ts, ok := profile.FromSeconds(sec)
					if err != nil || !ok {
						return nil, fmt.Errorf("gmon: bad timestamp %q", v)
					}
					s.Timestamp = ts
				}
			}
			sawHeader = true
		case strings.HasPrefix(line, "Each sample counts as "):
			rest := strings.TrimPrefix(line, "Each sample counts as ")
			rest = strings.TrimSuffix(rest, " seconds.")
			sec, err := strconv.ParseFloat(rest, 64)
			period, ok := profile.FromSeconds(sec)
			if err != nil || !ok {
				return nil, fmt.Errorf("gmon: bad sample period in %q", line)
			}
			s.SamplePeriod = period
		case strings.HasPrefix(strings.TrimSpace(line), "%") ||
			strings.HasPrefix(strings.TrimSpace(line), "time") ||
			strings.TrimSpace(line) == "":
			// column headers / blank separators
		default:
			fields := strings.Fields(line)
			if len(fields) < 6 {
				return nil, fmt.Errorf("gmon: malformed profile row %q", line)
			}
			self, err := strconv.ParseFloat(fields[2], 64)
			selfTime, ok := profile.FromSeconds(self)
			if err != nil || !ok {
				return nil, fmt.Errorf("gmon: bad self seconds in %q", line)
			}
			calls, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil || calls < 0 {
				return nil, fmt.Errorf("gmon: bad call count in %q", line)
			}
			name := strings.Join(fields[5:], " ")
			rec := profile.FuncRecord{Name: name, Calls: calls, SelfTime: selfTime}
			if s.SamplePeriod > 0 {
				// self fits a Duration and the period is at least 1ns, so
				// the count fits an int64.
				rec.Samples = int64(math.Round(self / s.SamplePeriod.Seconds()))
			}
			s.Funcs = append(s.Funcs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, errors.New("gmon: missing flat profile header")
	}
	s.Normalize()
	return s, nil
}
