package gcov

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/profile"
)

// The JaCoCo proof of concept (paper §IV footnote 1): JaCoCo's agent
// records boolean probe coverage and supports dump-with-reset, so an
// IncProf-style collector gets one *boolean activity vector* per interval —
// which functions ran at all — with no times and no counts. BooleanProfiles
// models that data; the XML types below read and write a JaCoCo-report-
// shaped document per interval (method counters with covered 0/1) as the
// interchange format.

// BooleanProfiles reduces count snapshots to JaCoCo-grade information:
// per-interval boolean function activity. Every active function gets a unit
// pseudo-time and a unit call so the detector's features and Algorithm 1's
// ordering still operate, but all magnitude information is gone — exactly
// what boolean coverage costs.
func BooleanProfiles(snaps []*Snapshot) ([]interval.Profile, error) {
	counted, err := Difference(snaps)
	if err != nil {
		return nil, err
	}
	for i := range counted {
		p := &counted[i]
		for fn := range p.Self {
			p.Self[fn] = time.Millisecond
			p.ExactSelf[fn] = time.Millisecond
		}
		for fn := range p.Calls {
			p.Calls[fn] = 1
			// Coverage sees call-only functions too.
			if _, ok := p.Self[fn]; !ok {
				p.Self[fn] = time.Millisecond
				p.ExactSelf[fn] = time.Millisecond
			}
		}
	}
	return counted, nil
}

// jacocoReport mirrors the shape of a JaCoCo XML report (one package, one
// class per function namespace, method counters).
type jacocoReport struct {
	XMLName xml.Name      `xml:"report"`
	Name    string        `xml:"name,attr"`
	Session jacocoSession `xml:"sessioninfo"`
	Package jacocoPackage `xml:"package"`
}

type jacocoSession struct {
	ID    string `xml:"id,attr"`
	Dump  int    `xml:"dump,attr"`
	TimeS string `xml:"start,attr"`
}

type jacocoPackage struct {
	Name    string         `xml:"name,attr"`
	Methods []jacocoMethod `xml:"class>method"`
}

type jacocoMethod struct {
	Name     string          `xml:"name,attr"`
	Counters []jacocoCounter `xml:"counter"`
}

type jacocoCounter struct {
	Type    string `xml:"type,attr"`
	Missed  int64  `xml:"missed,attr"`
	Covered int64  `xml:"covered,attr"`
}

// WriteJaCoCoXML renders one interval's activity (functions active since the
// last dump+reset) as a JaCoCo-style report. active maps function name to
// whether it executed in the interval.
func WriteJaCoCoXML(w io.Writer, appName string, dump int, ts time.Duration, active map[string]bool) error {
	names := make([]string, 0, len(active))
	for fn := range active {
		names = append(names, fn)
	}
	sort.Strings(names)
	rep := jacocoReport{
		Name: appName,
		Session: jacocoSession{
			ID:    fmt.Sprintf("%s-%d", appName, dump),
			Dump:  dump,
			TimeS: fmt.Sprintf("%.3f", ts.Seconds()),
		},
		Package: jacocoPackage{Name: appName},
	}
	for _, fn := range names {
		covered := int64(0)
		if active[fn] {
			covered = 1
		}
		rep.Package.Methods = append(rep.Package.Methods, jacocoMethod{
			Name: fn,
			Counters: []jacocoCounter{
				{Type: "METHOD", Missed: 1 - covered, Covered: covered},
			},
		})
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// ParseJaCoCoXML reads a report written by WriteJaCoCoXML (or a real JaCoCo
// report with METHOD counters) and returns the per-function activity, the
// dump index, and the timestamp.
func ParseJaCoCoXML(r io.Reader) (active map[string]bool, dump int, ts time.Duration, err error) {
	var rep jacocoReport
	if err := xml.NewDecoder(r).Decode(&rep); err != nil {
		return nil, 0, 0, fmt.Errorf("gcov: parsing JaCoCo XML: %w", err)
	}
	active = make(map[string]bool)
	for _, m := range rep.Package.Methods {
		for _, c := range m.Counters {
			if c.Type == "METHOD" {
				active[m.Name] = c.Covered > 0
			}
		}
	}
	if rep.Session.Dump < 0 {
		return nil, 0, 0, fmt.Errorf("gcov: negative session dump %d", rep.Session.Dump)
	}
	if rep.Session.TimeS != "" {
		var sec float64
		_, err := fmt.Sscanf(rep.Session.TimeS, "%f", &sec)
		start, ok := profile.FromSeconds(sec)
		if err != nil || !ok {
			return nil, 0, 0, fmt.Errorf("gcov: bad session start %q", rep.Session.TimeS)
		}
		ts = start
	}
	return active, rep.Session.Dump, ts, nil
}
