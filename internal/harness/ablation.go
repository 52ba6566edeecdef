package harness

import (
	"fmt"
	"io"
	"time"

	"github.com/incprof/incprof/internal/apps"
	"github.com/incprof/incprof/internal/bbv"
	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/fastphase"
	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/gcov"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/mpi"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/pipeline"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/report"
)

// AblationNames lists the available ablation studies (DESIGN.md A1-A12).
var AblationNames = []string{"kselect", "dbscan", "features", "coverage", "sampling", "promote", "merge", "fastphase", "gcov", "ranks", "bbv", "faults"}

// Ablation runs the named ablation study and writes its table. The studies
// correspond to design decisions the paper discusses in §V-A and §VI-E.
func Ablation(w io.Writer, name string, cfg Config) error {
	cfg = cfg.withDefaults()
	sp := obs.StartKey("harness.ablation", obs.KeyString(name))
	sp.SetStr("ablation", name)
	defer sp.End()
	switch name {
	case "kselect":
		return ablateKSelect(w, cfg)
	case "dbscan":
		return ablateDBSCAN(w, cfg)
	case "features":
		return ablateFeatures(w, cfg)
	case "coverage":
		return ablateCoverage(w, cfg)
	case "sampling":
		return ablateSampling(w, cfg)
	case "promote":
		return ablatePromotion(w, cfg)
	case "merge":
		return ablateMerge(w, cfg)
	case "fastphase":
		return ablateFastPhase(w, cfg)
	case "gcov":
		return ablateGcov(w, cfg)
	case "ranks":
		return ablateRanks(w, cfg)
	case "bbv":
		return ablateBBV(w, cfg)
	case "faults":
		return ablateFaults(w, cfg)
	default:
		return fmt.Errorf("harness: unknown ablation %q (have %v)", name, AblationNames)
	}
}

// collectAll profiles every application once at the configured scale so the
// ablations can re-analyze the same data under different settings.
func collectAll(cfg Config) (map[string]*pipeline.Analysis, map[string]*pipeline.CollectionResult, error) {
	analyses := make(map[string]*pipeline.Analysis)
	collections := make(map[string]*pipeline.CollectionResult)
	for _, name := range apps.Names() {
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return nil, nil, err
		}
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		an, err := pipeline.Analyze(res, analyzeOptions(cfg))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		analyses[name] = an
		collections[name] = res
	}
	return analyses, collections, nil
}

func analyzeOptions(cfg Config) pipeline.AnalyzeOptions {
	var o pipeline.AnalyzeOptions
	o.Phase.Cluster.Seed = cfg.Seed
	return o
}

// ablateKSelect compares k chosen by the explained-variance elbow, the
// distance-to-chord elbow, and the silhouette method (paper §V-A: "both the
// elbow and silhouette methods ... are established quantitative methods for
// selecting k").
func ablateKSelect(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		"Ablation A1 — k selection method (paper k in parentheses)",
		"App", "Elbow (variance)", "Elbow (chord)", "Silhouette")
	for _, name := range apps.Names() {
		an := analyses[name]
		chordK := cluster.ElbowKChord(an.Detection.WCSS)
		profs := interval.Profiles(an.Profiles)
		silDet, err := phase.Detect(profs, phase.Options{
			Selection: phase.Silhouette,
			Features:  interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
			Cluster:   cluster.Options{Seed: cfg.Seed},
		})
		if err != nil {
			return err
		}
		app, _ := apps.New(name, cfg.Scale)
		tb.AddRow(name,
			fmt.Sprintf("%d (%d)", an.Detection.K, app.Meta().PaperPhases),
			fmt.Sprint(chordK),
			fmt.Sprint(silDet.K))
	}
	return tb.Render(w)
}

// ablateDBSCAN compares k-means phases against DBSCAN clustering (paper
// §V-A: "we have also experimented with other clustering algorithms (e.g.,
// DBSCAN) but also have not seen improvements").
func ablateDBSCAN(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		"Ablation A2 — clustering algorithm",
		"App", "k-means phases", "DBSCAN phases", "DBSCAN noise intervals")
	for _, name := range apps.Names() {
		an := analyses[name]
		dbDet, err := phase.Detect(interval.Profiles(an.Profiles), phase.Options{
			Algorithm: phase.DBSCANAlg,
			Features:  interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
		})
		if err != nil {
			return err
		}
		tb.AddRow(name,
			fmt.Sprint(len(an.Detection.Phases)),
			fmt.Sprint(len(dbDet.Phases)),
			fmt.Sprint(len(dbDet.NoiseIntervals)))
	}
	return tb.Render(w)
}

// ablateFeatures compares the paper's sampled-self-time features against
// exact self time and self+calls (paper §V-A: "we have experimented with
// including or using other profiling data (number of calls, ...) but have
// not found these to improve the results").
func ablateFeatures(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		"Ablation A3 — feature choice (phases / sites discovered)",
		"App", "sampled-self", "exact-self", "self+calls")
	for _, name := range apps.Names() {
		profs := interval.Profiles(analyses[name].Profiles)
		cell := func(kind interval.FeatureKind) string {
			det, err := phase.Detect(profs, phase.Options{
				Features: interval.FeatureOptions{Kind: kind, Exclude: mpi.IsMPIFunc},
				Cluster:  cluster.Options{Seed: cfg.Seed},
			})
			if err != nil {
				return "err"
			}
			sites := 0
			for _, p := range det.Phases {
				sites += len(p.Sites)
			}
			return fmt.Sprintf("%d / %d", len(det.Phases), sites)
		}
		tb.AddRow(name,
			cell(interval.SampledSelf),
			cell(interval.ExactSelf),
			cell(interval.SelfPlusCalls))
	}
	return tb.Render(w)
}

// ablateCoverage sweeps Algorithm 1's coverage threshold around the paper's
// 95% setting.
func ablateCoverage(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	thresholds := []float64{0.80, 0.90, 0.95, 1.00}
	cols := []string{"App"}
	for _, t := range thresholds {
		cols = append(cols, fmt.Sprintf("sites@%.0f%%", t*100))
	}
	tb := report.NewTable("Ablation A4 — Algorithm 1 coverage threshold (total sites)", cols...)
	for _, name := range apps.Names() {
		row := []string{name}
		profs := interval.Profiles(analyses[name].Profiles)
		for _, t := range thresholds {
			det, err := phase.Detect(profs, phase.Options{
				CoverageThreshold: t,
				Features:          interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
				Cluster:           cluster.Options{Seed: cfg.Seed},
			})
			if err != nil {
				return err
			}
			sites := 0
			for _, p := range det.Phases {
				sites += len(p.Sites)
			}
			row = append(row, fmt.Sprint(sites))
		}
		tb.AddRow(row...)
	}
	return tb.Render(w)
}

// ablateSampling varies the IncProf dump interval on Gadget2, the paper's
// hard case (§VI-E: sub-second phases escape one-second intervals; "this
// points to a need for an alternative analysis scheme for applications with
// fast phases").
func ablateSampling(w io.Writer, cfg Config) error {
	intervals := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second}
	tb := report.NewTable(
		"Ablation A5 — IncProf interval vs Gadget2's fast phases",
		"Interval", "Intervals collected", "Phases", "Distinct site functions", "Main-loop fns discovered", "Recovered by fast-phase analysis")
	mainLoop := map[string]bool{
		"find_next_sync_point_and_drift": true,
		"domain_decomposition":           true,
		"compute_accelerations":          true,
		"advance_and_find_timesteps":     true,
	}
	for _, intvl := range intervals {
		app, err := apps.New("gadget", cfg.Scale)
		if err != nil {
			return err
		}
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true, Interval: intvl})
		if err != nil {
			return err
		}
		an, err := pipeline.Analyze(res, analyzeOptions(cfg))
		if err != nil {
			return err
		}
		fns := make(map[string]bool)
		loopFns := 0
		for _, p := range an.Detection.Phases {
			for _, s := range p.Sites {
				if !fns[s.Function] && mainLoop[s.Function] {
					loopFns++
				}
				fns[s.Function] = true
			}
		}
		fast := fastphase.Analyze(interval.Profiles(an.Profiles), fastphase.Options{Exclude: mpi.IsMPIFunc})
		recovered := 0
		if len(fast.Groups) > 0 {
			for _, fn := range fast.Groups[0].Functions {
				if mainLoop[fn] {
					recovered++
				}
			}
		}
		tb.AddRow(intvl.String(),
			fmt.Sprint(len(an.Profiles)),
			fmt.Sprint(len(an.Detection.Phases)),
			fmt.Sprint(len(fns)),
			fmt.Sprintf("%d / 4", loopFns),
			fmt.Sprintf("%d / 4", recovered))
	}
	return tb.Render(w)
}

// ablatePromotion compares discovered sites before and after call-graph
// site promotion — the paper's §VI-B improvement path ("extending the
// discovery analysis to use the call-graph structure might be a way to
// improve it and select our site, which is higher up in the call graph").
func ablatePromotion(w io.Writer, cfg Config) error {
	tb := report.NewTable(
		"Ablation A6 — call-graph site promotion",
		"App", "Phase", "Selected site", "Promoted to", "Manual site?")
	for _, name := range apps.Names() {
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return err
		}
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
		if err != nil {
			return err
		}
		an, err := pipeline.Analyze(res, pipeline.AnalyzeOptions{
			Phase:        phase.Options{Cluster: cluster.Options{Seed: cfg.Seed}},
			PromoteSites: true,
		})
		if err != nil {
			return err
		}
		manual := make(map[string]bool)
		for _, s := range app.ManualSites() {
			manual[s.Function] = true
		}
		for _, p := range an.Detection.Phases {
			for _, s := range p.Sites {
				from := s.PromotedFrom
				if from == "" {
					from = s.Function
				}
				promoted := "(unchanged)"
				if s.PromotedFrom != "" {
					promoted = s.Function
				}
				isManual := ""
				if manual[s.Function] {
					isManual = "yes"
				}
				tb.AddRow(name, fmt.Sprint(p.ID), from, promoted, isManual)
			}
		}
	}
	return tb.Render(w)
}

// ablateMerge shows the effect of the paper's proposed postprocessing:
// combining phases that share an identical instrumentation-site set
// (§VI-A, §VI-D).
func ablateMerge(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		"Ablation A7 — merging phases with identical site sets (paper k in parentheses)",
		"App", "Phases before", "Phases after", "Merged")
	for _, name := range apps.Names() {
		an := analyses[name]
		det, err := phase.Detect(interval.Profiles(an.Profiles), phase.Options{
			Features: interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
			Cluster:  cluster.Options{Seed: cfg.Seed},
		})
		if err != nil {
			return err
		}
		before := len(det.Phases)
		removed := det.MergeDuplicatePhases()
		app, _ := apps.New(name, cfg.Scale)
		tb.AddRow(name,
			fmt.Sprintf("%d (%d)", before, app.Meta().PaperPhases),
			fmt.Sprint(len(det.Phases)),
			fmt.Sprint(removed))
	}
	return tb.Render(w)
}

// ablateFastPhase runs the fast-phase extension (package fastphase) on
// Gadget2, the paper's hard case: the main timestep loop's functions are
// invisible to interval clustering (§VI-E) but recoverable from per-interval
// call-count correlation, and the particle-mesh burst cadence shows up as a
// periodicity.
func ablateFastPhase(w io.Writer, cfg Config) error {
	app, err := apps.New("gadget", cfg.Scale)
	if err != nil {
		return err
	}
	res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
	if err != nil {
		return err
	}
	an, err := pipeline.Analyze(res, analyzeOptions(cfg))
	if err != nil {
		return err
	}
	fast := fastphase.Analyze(interval.Profiles(an.Profiles), fastphase.Options{Exclude: mpi.IsMPIFunc})

	tb := report.NewTable(
		"Ablation A8 — fast-phase analysis on Gadget2 (call-count loop grouping)",
		"Group", "Functions", "Loop rate (iters/interval)")
	for i, g := range fast.Groups {
		for j, fn := range g.Functions {
			id, rate := "", ""
			if j == 0 {
				id = fmt.Sprint(i)
				rate = fmt.Sprintf("%.2f", g.RatePerInterval)
			}
			tb.AddRow(id, fn, rate)
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	pt := report.NewTable("Detected periodicities (autocorrelation peaks)",
		"Function", "Period (intervals)", "Strength")
	for _, p := range fast.Periodicities {
		pt.AddRow(p.Function, fmt.Sprint(p.Period), fmt.Sprintf("%.2f", p.Strength))
	}
	return pt.Render(w)
}

// ablateGcov compares phase detection driven by gprof-style sampled time
// against the coverage-counter data source (the paper's gcov/JaCoCo
// proof-of-concept, §IV footnote 1).
func ablateGcov(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		"Ablation A9 — data source: gprof sampled time vs gcov coverage counts",
		"App", "Time-based phases/sites", "Count-based phases/sites", "Boolean (JaCoCo) phases/sites", "Labeling agreement")
	for _, name := range apps.Names() {
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return err
		}
		var collector *gcov.Collector
		err = mpi.Run(mpi.Config{Size: app.Meta().Ranks}, nil, func(r *mpi.Rank) {
			c := gcov.New(r.Runtime(), time.Second)
			defer c.Close()
			if r.ID() == 0 {
				collector = c
			}
			app.Run(r)
		})
		if err != nil {
			return err
		}
		countProfs, err := gcov.Difference(collector.Snapshots())
		if err != nil {
			return err
		}
		boolProfs, err := gcov.BooleanProfiles(collector.Snapshots())
		if err != nil {
			return err
		}
		boolDet, err := phase.Detect(boolProfs, phase.Options{
			Features: interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
			Cluster:  cluster.Options{Seed: cfg.Seed},
		})
		if err != nil {
			return err
		}
		countDet, err := phase.Detect(countProfs, phase.Options{
			Features: interval.FeatureOptions{Exclude: mpi.IsMPIFunc},
			Cluster:  cluster.Options{Seed: cfg.Seed},
		})
		if err != nil {
			return err
		}
		timeDet := analyses[name].Detection
		labelsOf := func(det *phase.Detection, n int) []int {
			labels := make([]int, n)
			for _, p := range det.Phases {
				for _, idx := range p.Intervals {
					if idx < n {
						labels[idx] = p.ID
					}
				}
			}
			return labels
		}
		n := len(countProfs)
		if m := len(analyses[name].Profiles); m < n {
			n = m
		}
		ari := cluster.AdjustedRandIndex(
			labelsOf(timeDet, n), labelsOf(countDet, n))
		agree := fmt.Sprintf("ARI %.2f", ari)
		countSites := 0
		for _, p := range countDet.Phases {
			countSites += len(p.Sites)
		}
		timeSites := 0
		for _, p := range timeDet.Phases {
			timeSites += len(p.Sites)
		}
		boolSites := 0
		for _, p := range boolDet.Phases {
			boolSites += len(p.Sites)
		}
		tb.AddRow(name,
			fmt.Sprintf("%d / %d", len(timeDet.Phases), timeSites),
			fmt.Sprintf("%d / %d", len(countDet.Phases), countSites),
			fmt.Sprintf("%d / %d", len(boolDet.Phases), boolSites),
			agree)
	}
	return tb.Render(w)
}

// ablateRanks quantifies the symmetric-parallel assumption behind analyzing
// one representative rank (§VI): phase detection runs independently on every
// rank and the labelings are compared pairwise (adjusted Rand index), along
// with the per-function cross-rank time variation.
func ablateRanks(w io.Writer, cfg Config) error {
	tb := report.NewTable(
		"Ablation A10 — cross-rank symmetry",
		"App", "Ranks", "Phase-labeling agreement (ARI)", "Self-time CoV (weighted)")
	for _, name := range apps.Names() {
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return err
		}
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
		if err != nil {
			return err
		}
		agreement, err := pipeline.RankAgreement(res, analyzeOptions(cfg))
		if err != nil {
			return err
		}
		stats, err := pipeline.CrossRankStats(res)
		if err != nil {
			return err
		}
		tb.AddRow(name,
			fmt.Sprint(app.Meta().Ranks),
			fmt.Sprintf("%.3f", agreement),
			fmt.Sprintf("%.4f", pipeline.SymmetryScore(stats)))
	}
	return tb.Render(w)
}

// ablateBBV contrasts the paper's source-oriented phases with the
// hardware-centric baseline it discusses in §II: SimPoint-style
// basic-block-vector clustering. The adjusted Rand index quantifies the
// "degree of overlap" the paper cites (Sherwood et al. [7]) between the two
// views of the same runs.
func ablateBBV(w io.Writer, cfg Config) error {
	analyses, _, err := collectAll(cfg)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		"Ablation A11 — source-oriented phases vs SimPoint-style BBV phases",
		"App", "Source phases (paper k)", "BBV phases", "Labeling agreement (ARI)")
	for _, name := range apps.Names() {
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return err
		}
		var collector *gcov.Collector
		err = mpi.Run(mpi.Config{Size: app.Meta().Ranks}, nil, func(r *mpi.Rank) {
			c := gcov.New(r.Runtime(), time.Second)
			defer c.Close()
			if r.ID() == 0 {
				collector = c
			}
			app.Run(r)
		})
		if err != nil {
			return err
		}
		bres, err := bbv.Phases(collector.Snapshots(), bbv.Options{Seed: cfg.Seed, Exclude: mpi.IsMPIFunc})
		if err != nil {
			return err
		}
		srcDet := analyses[name].Detection
		srcLabels := make([]int, len(analyses[name].Profiles))
		for _, p := range srcDet.Phases {
			for _, idx := range p.Intervals {
				srcLabels[idx] = p.ID
			}
		}
		n := len(srcLabels)
		if len(bres.Assign) < n {
			n = len(bres.Assign)
		}
		ari := cluster.AdjustedRandIndex(srcLabels[:n], bres.Assign[:n])
		tb.AddRow(name,
			fmt.Sprintf("%d (%d)", len(srcDet.Phases), app.Meta().PaperPhases),
			fmt.Sprint(bres.K),
			fmt.Sprintf("%.2f", ari))
	}
	return tb.Render(w)
}

// ablateFaults measures end-to-end degradation under injected collection
// faults (DESIGN.md A12). Each application is profiled once fault-free to
// produce a golden phase detection; the golden rank-0 snapshot stream is
// then replayed through the deterministic fault injector at increasing
// drop rates, salvaged by the robust analysis (gap-aware differencing with
// split repair), and re-detected. The table reports surviving dumps,
// absorbed gaps, detected k, and the Adjusted Rand Index of the degraded
// labels against the golden ones — 1.000 at 0% by construction, decaying as
// data is lost.
func ablateFaults(w io.Writer, cfg Config) error {
	rates := []float64{0, 0.05, 0.10, 0.20, 0.30}
	tb := report.NewTable(
		"Ablation A12 — fault-injected collection (dump drop rate vs fault-free golden run)",
		"App", "Drop %", "Dumps kept", "Gaps", "Detected k", "ARI vs golden")
	labelsOf := func(det *phase.Detection, n int) []int {
		labels := make([]int, n)
		for _, p := range det.Phases {
			for _, idx := range p.Intervals {
				if idx < n {
					labels[idx] = p.ID
				}
			}
		}
		return labels
	}
	for _, name := range apps.Names() {
		app, err := apps.New(name, cfg.Scale)
		if err != nil {
			return err
		}
		res, err := pipeline.Collect(app, pipeline.CollectOptions{Profile: true})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		golden, err := pipeline.Analyze(res, analyzeOptions(cfg))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		goldenLabels := labelsOf(golden.Detection, len(golden.Profiles))
		snaps := res.Snapshots[0]
		for _, rate := range rates {
			fs := faults.NewStore(incprof.NewMemStore(), faults.Plan{Seed: cfg.Seed, Drop: rate}, 0)
			for _, s := range snaps {
				if err := fs.Put(s); err != nil {
					return err
				}
			}
			kept, err := fs.Snapshots()
			if err != nil {
				return err
			}
			ropts := analyzeOptions(cfg)
			ropts.Parallelism, ropts.Robust = cfg.Parallelism, true
			rres, err := pipeline.Analyze(&pipeline.CollectionResult{Snapshots: [][]*profile.Sample{kept}}, ropts)
			if err != nil {
				return fmt.Errorf("%s at %.0f%%: %w", name, rate*100, err)
			}
			n := min(len(goldenLabels), len(rres.Profiles))
			ari := cluster.AdjustedRandIndex(goldenLabels[:n], labelsOf(rres.Detection, n))
			tb.AddRow(name,
				fmt.Sprintf("%.0f", rate*100),
				fmt.Sprint(len(kept)),
				fmt.Sprint(len(rres.Gaps)),
				fmt.Sprint(rres.Detection.K),
				fmt.Sprintf("%.3f", ari))
		}
	}
	return tb.Render(w)
}
