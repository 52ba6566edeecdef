package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain prints, per (workload, metric), both sides' medians and
// spreads, the change and the bound, and a verdict. Each side is a result
// file or a directory of them; the runs of one side are pooled.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare PARENT CHANGE (result files or directories of them)")
		return 2
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var sides [2]side
	for i := range sides {
		if sides[i], err = loadSide(args[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	for i, s := range sides {
		fmt.Printf("%s: %d runs on %s\n", args[i], len(s.runs), strings.Join(s.hosts, "; "))
	}
	if strings.Join(sides[0].hosts, ";") != strings.Join(sides[1].hosts, ";") {
		fmt.Println("note: the sides ran on different hosts; the comparison is reported, not a verdict on the change")
	}
	fmt.Printf("%-13s %-32s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "parent", "IQR", "change", "IQR", "delta", "bound", "verdict")
	for _, key := range pooledKeys(sides) {
		m, ok := spec.metric(key.metric)
		if !ok {
			continue
		}
		a, b := sides[0].values[key], sides[1].values[key]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		sa, sb := summarize(a), summarize(b)
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
		}
		fmt.Printf("%-13s %-32s %12.6g %6.1f%% %12.6g %6.1f%% %8s %6s  %s\n",
			key.workload, key.metric, sa.Median, 100*sa.spread(), sb.Median, 100*sb.spread(),
			delta(sa.Median, sb.Median), bound, verdict(a, b, m))
	}
	return 0
}

// delta is the change in the median, relative to the parent's, or the raw
// difference when the parent's median is 0.
func delta(parent, change float64) string {
	if parent == 0 {
		return fmt.Sprintf("%+.3g", change)
	}
	return fmt.Sprintf("%+.1f%%", 100*(change-parent)/math.Abs(parent))
}

type sideKey struct{ workload, metric string }

// side is one commit's pooled runs.
type side struct {
	runs   []record
	hosts  []string
	values map[sideKey][]float64
}

func loadSide(path string) (side, error) {
	s := side{values: map[sideKey][]float64{}}
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return s, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return s, err
		}
	}
	seen := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return s, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return s, fmt.Errorf("%s: %w", f, err)
		}
		h := fmt.Sprintf("%s/%s %s (%d CPUs, GOMAXPROCS %d, %s)", rf.Host.GOOS, rf.Host.GOARCH, rf.Host.CPU,
			rf.Host.NumCPU, rf.Host.GOMAXPROCS, rf.Host.GoVersion)
		if !seen[h] {
			seen[h] = true
			s.hosts = append(s.hosts, h)
		}
		for _, r := range rf.Runs {
			s.runs = append(s.runs, r)
			for name, v := range r.Metrics {
				k := sideKey{r.Workload, name}
				s.values[k] = append(s.values[k], v.Value)
			}
		}
	}
	sort.Strings(s.hosts)
	if len(s.runs) == 0 {
		return s, fmt.Errorf("%s holds no runs", path)
	}
	return s, nil
}

func pooledKeys(sides [2]side) []sideKey {
	var keys []sideKey
	for k := range sides[0].values {
		if _, ok := sides[1].values[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	return keys
}

// verdict judges the change (b) against the parent (a): better when every
// change run beats every parent run, or when change runs beat parent runs in
// at least nine tenths of all pairings and the medians differ in the
// change's favour by more than the parent's own spread; unresolved when
// either side's spread exceeds the bound; worse when the change's median is
// worse by more than the bound; same otherwise. Per-layer metrics have no
// bound: they are worse when they move against their direction by more than
// the parent's spread. A parent median of 0 admits no relative change: the
// medians are compared as they are.
func verdict(a, b []float64, m specMetric) string {
	cost := func(x float64) float64 {
		if m.Better == "higher" {
			return -x
		}
		return x
	}
	sa, sb := summarize(a), summarize(b)
	if sa.Median == 0 {
		switch {
		case cost(sb.Median) > 0:
			return "worse"
		case cost(sb.Median) < 0:
			return "better"
		}
		return "same"
	}
	worse := (cost(sb.Median) - cost(sa.Median)) / math.Abs(sa.Median)
	wins := 0
	for _, x := range b {
		for _, y := range a {
			if cost(x) < cost(y) {
				wins++
			}
		}
	}
	switch {
	case wins == len(a)*len(b):
		return "better"
	case m.Bound > 0 && math.Max(sa.spread(), sb.spread()) > m.Bound:
		return "unresolved"
	case m.Bound > 0 && worse > m.Bound:
		return "worse"
	case m.Bound == 0 && worse > sa.spread():
		return "worse"
	case 10*wins >= 9*len(a)*len(b) && -worse > sa.spread():
		return "better"
	}
	return "same"
}
