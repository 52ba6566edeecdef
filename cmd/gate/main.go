// Command gate is the unified verification harness: one binary that runs
// every check the repository has — determinism diffs, the A12 fault
// ablation, follow-mode and SIGKILL/resume equivalence, the stream memory
// and overload gates, the sweep benchmarks, and the obs overhead contract —
// as named, composable tasks, and tracks perf through the committed
// BENCH.json trajectory.
//
// Usage:
//
//	gate list                     # show every registered task
//	gate run sweep,obs            # run a subset (dependencies included)
//	gate ci                       # the full CI gate set, compare-only
//	gate run ci -append -note "…" # run everything and append a BENCH.json entry
//	gate report                   # render the committed trajectory as a table
//
// After the tasks run, every gated metric they recorded is compared against
// the newest BENCH.json entry under the min-of-rounds significance rules in
// internal/gate/stat: the run exits non-zero when a metric regresses past
// both the threshold and the larger of the two entries' own noise spreads.
// -append (on a passing run) writes the measurements as the next trajectory
// entry — one entry per perf-relevant PR is the convention.
//
// Exit status: 0 all tasks and the regression gate passed; 1 a task failed
// or a metric regressed; 2 usage or I/O error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/incprof/incprof/internal/gate"
	"github.com/incprof/incprof/internal/gate/tasks"
	"github.com/incprof/incprof/internal/gate/trajectory"
	"github.com/incprof/incprof/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], tasks.Registry(), os.Stdout, os.Stderr))
}

const usage = `usage: gate [flags] <command>

commands:
  list             show every registered task
  run <t1,t2,...>  run the named tasks (dependencies included); "ci" is the full set
  ci               run the full CI gate set (compare-only unless -append)
  report           render the BENCH.json trajectory as a table

flags:
  -history FILE    trajectory file (default BENCH.json at the repo root)
  -threshold PCT   max allowed regression vs the previous entry (default 5)
  -append          append this run's metrics as a new trajectory entry
  -note STRING     label stored with an appended entry
  -date YYYY-MM-DD date for an appended entry (default today, UTC)
  -v               stream task output instead of buffering it
`

// run is the whole CLI, parameterized for tests: the task registry and both
// output streams are injected, and the exit code is returned instead of
// os.Exit'ed.
func run(args []string, reg *gate.Registry, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	history := fs.String("history", "", "trajectory file (default BENCH.json at the repo root)")
	threshold := fs.Float64("threshold", 5.0, "max allowed regression vs the previous entry, percent")
	appendEntry := fs.Bool("append", false, "append this run's metrics as a new trajectory entry")
	note := fs.String("note", "", "label stored with an appended entry")
	date := fs.String("date", "", "date for an appended entry, YYYY-MM-DD (default today, UTC)")
	verbose := fs.Bool("v", false, "stream task output instead of buffering it")
	// Flags may appear before or after the subcommand (`gate ci -threshold
	// 50` and `gate run ci -append` are both documented forms); the stdlib
	// parser stops at the first positional, so collect positionals and
	// re-parse the remainder until the argument list is exhausted.
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	arg := func(i int) string {
		if i < len(pos) {
			return pos[i]
		}
		return ""
	}
	switch arg(0) {
	case "list":
		for _, name := range reg.Names() {
			t, _ := reg.Get(name)
			deps := ""
			if len(t.Deps) > 0 {
				deps = " (deps: " + strings.Join(t.Deps, ", ") + ")"
			}
			fmt.Fprintf(stdout, "%-12s %s%s\n", t.Name, t.Desc, deps)
		}
		return 0
	case "report":
		return doReport(*history, stdout, stderr)
	case "run":
		names := splitTasks(arg(1))
		if len(names) == 0 {
			fmt.Fprintln(stderr, "gate: run needs a comma-separated task list")
			fmt.Fprint(stderr, usage)
			return 2
		}
		if len(names) == 1 && names[0] == "ci" {
			names = tasks.CISet()
		}
		return doRun(reg, names, *history, *threshold, *appendEntry, *note, *date, *verbose, stdout, stderr)
	case "ci":
		return doRun(reg, tasks.CISet(), *history, *threshold, *appendEntry, *note, *date, *verbose, stdout, stderr)
	default:
		fmt.Fprint(stderr, usage)
		return 2
	}
}

func splitTasks(arg string) []string {
	var names []string
	for _, n := range strings.Split(arg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

func doRun(reg *gate.Registry, names []string, history string, threshold float64,
	appendEntry bool, note, date string, verbose bool, stdout, stderr io.Writer) int {
	root, err := gate.FindRepoRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "gate:", err)
		return 2
	}
	if history == "" {
		history = root + "/" + trajectory.DefaultFile
	}
	tmp, err := os.MkdirTemp("", "gate-")
	if err != nil {
		fmt.Fprintln(stderr, "gate:", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	ctx := gate.NewContext(root, tmp, threshold)
	runner := gate.NewRunner(reg, stdout, verbose)
	_, runErr := runner.Run(ctx, names)
	if runErr != nil {
		fmt.Fprintln(stderr, "gate:", runErr)
		if _, resolveFailed := reg.Resolve(names); resolveFailed != nil {
			return 2
		}
		return 1
	}

	metrics := ctx.Metrics()
	if len(metrics) == 0 {
		if appendEntry {
			fmt.Fprintln(stderr, "gate: nothing to append — no task recorded a metric")
			return 2
		}
		return 0
	}
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}
	entry := trajectory.Entry{Date: date, Note: note, Metrics: metrics}

	traj, err := trajectory.Load(history)
	if err != nil {
		fmt.Fprintln(stderr, "gate:", err)
		return 2
	}
	prev := traj.Latest()
	comps, pass := trajectory.Gate(prev, &entry, threshold)
	if prev == nil {
		fmt.Fprintf(stdout, "%s: no history yet; this run is the baseline\n", history)
	} else {
		printComparisons(stdout, prev, comps)
	}
	if !pass {
		fmt.Fprintf(stderr, "gate: regression over %.1f%% threshold vs the newest %s entry\n", threshold, history)
		return 1
	}
	if appendEntry {
		traj.Append(entry)
		if err := traj.Save(history); err != nil {
			fmt.Fprintln(stderr, "gate:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s: appended entry %d (%s)\n", history, len(traj.Entries), entry.Date)
	}
	return 0
}

func printComparisons(w io.Writer, prev *trajectory.Entry, comps []trajectory.Comparison) {
	label := prev.Date
	if prev.Note != "" {
		label += ", " + prev.Note
	}
	fmt.Fprintf(w, "vs previous entry (%s):\n", label)
	for _, c := range comps {
		if c.Prev.Ungated || c.Cur.Ungated {
			fmt.Fprintf(w, "  %-55s %14s -> %-14s (tracked, ungated)\n",
				c.Name, fmtValue(c.Prev.Value, c.Prev.Unit), fmtValue(c.Cur.Value, c.Cur.Unit))
			continue
		}
		status := "ok"
		if !c.Pass {
			status = "REGRESSED"
		}
		fmt.Fprintf(w, "  %-55s %14s -> %-14s %+6.2f%% (noise %.2f%%)  %s\n",
			c.Name, fmtValue(c.Prev.Value, c.Prev.Unit), fmtValue(c.Cur.Value, c.Cur.Unit),
			c.DeltaPct, c.NoisePct, status)
	}
}

func doReport(history string, stdout, stderr io.Writer) int {
	if history == "" {
		root, err := gate.FindRepoRoot(".")
		if err != nil {
			fmt.Fprintln(stderr, "gate:", err)
			return 2
		}
		history = root + "/" + trajectory.DefaultFile
	}
	traj, err := trajectory.Load(history)
	if err != nil {
		fmt.Fprintln(stderr, "gate:", err)
		return 2
	}
	if len(traj.Entries) == 0 {
		fmt.Fprintf(stdout, "%s: no entries\n", history)
		return 0
	}

	for i, e := range traj.Entries {
		note := e.Note
		if note == "" {
			note = "(no note)"
		}
		fmt.Fprintf(stdout, "#%d  %s  %s\n", i+1, e.Date, note)
	}
	fmt.Fprintln(stdout)

	nameSet := make(map[string]bool)
	for _, e := range traj.Entries {
		for name := range e.Metrics {
			nameSet[name] = true
		}
	}
	names := make([]string, 0, len(nameSet))
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)

	cols := []string{"Metric"}
	for i := range traj.Entries {
		cols = append(cols, fmt.Sprintf("#%d", i+1))
	}
	tbl := report.NewTable("BENCH trajectory", cols...)
	for _, name := range names {
		row := []string{name}
		for _, e := range traj.Entries {
			if m, ok := e.Metrics[name]; ok {
				row = append(row, fmtValue(m.Value, m.Unit))
			} else {
				row = append(row, "-")
			}
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(stdout); err != nil {
		fmt.Fprintln(stderr, "gate:", err)
		return 2
	}
	return 0
}

// fmtValue renders a metric compactly by unit.
func fmtValue(v float64, unit string) string {
	switch unit {
	case "ns/op":
		switch {
		case v >= 1e6:
			return fmt.Sprintf("%.2fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fµs", v/1e3)
		}
		return fmt.Sprintf("%.0fns", v)
	case "bytes":
		switch {
		case v >= 1<<20 || v <= -(1<<20):
			return fmt.Sprintf("%.1fMiB", v/(1<<20))
		case v >= 1<<10 || v <= -(1<<10):
			return fmt.Sprintf("%.1fKiB", v/(1<<10))
		}
		return fmt.Sprintf("%.0fB", v)
	case "ms":
		return fmt.Sprintf("%.0fms", v)
	case "pct":
		return fmt.Sprintf("%+.2f%%", v)
	case "count":
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g %s", v, unit)
}
