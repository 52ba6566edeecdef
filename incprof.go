package incprof

import (
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/exec"
	"github.com/incprof/incprof/internal/heartbeat"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/online"
	"github.com/incprof/incprof/internal/phase"
	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/profiler"
	"github.com/incprof/incprof/internal/vclock"
	"github.com/incprof/incprof/internal/xmath"
)

// Execution runtime (see internal/exec).
type (
	// Runtime is the instrumented virtual-time execution environment
	// applications run on.
	Runtime = exec.Runtime
	// FuncID identifies a registered application function.
	FuncID = exec.FuncID
	// Listener observes execution events (function enter/exit, work).
	Listener = exec.Listener
	// Clock is the deterministic virtual clock a Runtime drives.
	Clock = vclock.Clock
	// VTime is a virtual timestamp (nanoseconds since run start).
	VTime = vclock.Time
)

// NoFunc is the FuncID reported when no application function is executing.
const NoFunc = exec.NoFunc

// NewRuntime returns a Runtime driving the given clock (nil allocates a
// fresh clock at time zero).
func NewRuntime(clock *Clock) *Runtime { return exec.New(clock) }

// NewClock returns a virtual clock reading time zero.
func NewClock() *Clock { return vclock.New() }

// Profiling (see internal/profiler and internal/gmon).
type (
	// Profiler collects gprof-model data: sampled self time, exact call
	// counts, call-graph arcs.
	Profiler = profiler.Profiler
	// Snapshot is one cumulative profile dump (a gmon.out equivalent).
	Snapshot = profile.Sample
	// FuncRecord is a snapshot's per-function row.
	FuncRecord = profile.FuncRecord
	// Arc is a caller→callee edge with a count.
	Arc = profile.Arc
)

// DefaultSamplePeriod is the 100 Hz profiling clock gprof customarily uses.
const DefaultSamplePeriod = profiler.DefaultSamplePeriod

// NewProfiler attaches a profiler to rt with the given sampling period
// (0 means DefaultSamplePeriod).
func NewProfiler(rt *Runtime, period time.Duration) *Profiler {
	return profiler.New(rt, period)
}

// IncProf collection (see internal/incprof).
type (
	// Collector dumps cumulative profiles once per interval, the
	// paper's IncProf agent.
	Collector = incprof.Collector
	// CollectorOptions configures a Collector.
	CollectorOptions = incprof.Options
	// SnapshotStore receives and serves the dumps.
	SnapshotStore = incprof.Store
	// MemStore keeps snapshots in memory.
	MemStore = incprof.MemStore
	// DirStore writes gmon.out.N files, one per interval.
	DirStore = incprof.DirStore
)

// DefaultInterval is the paper's dump rate: one snapshot per second.
const DefaultInterval = incprof.DefaultInterval

// NewCollector starts an IncProf collector over rt and prof.
func NewCollector(rt *Runtime, prof *Profiler, opts CollectorOptions) *Collector {
	return incprof.New(rt, prof, opts)
}

// NewMemStore returns an empty in-memory snapshot store.
func NewMemStore() *MemStore { return incprof.NewMemStore() }

// NewDirStore returns a store writing one file per dump under dir.
func NewDirStore(dir string, textReports bool) (*DirStore, error) {
	return incprof.NewDirStore(dir, textReports)
}

// Interval analysis (see internal/interval).
type (
	// IntervalProfile is one collection interval's per-function
	// activity.
	IntervalProfile = interval.Profile
	// FeatureOptions configures feature-matrix construction.
	FeatureOptions = interval.FeatureOptions
	// FeatureMatrix is the clustering input (intervals × functions).
	FeatureMatrix = interval.Matrix
)

// DifferenceSnapshots converts cumulative snapshots into per-interval
// profiles (paper §V-A, the first analysis step). Snapshot pairs diff
// concurrently on the full GOMAXPROCS worker budget; use
// DifferenceSnapshotsP to bound the pool. The output is identical either
// way.
func DifferenceSnapshots(snaps []*Snapshot) ([]IntervalProfile, error) {
	return interval.Difference(snaps)
}

// DifferenceSnapshotsP is DifferenceSnapshots on a worker pool bounded by
// parallelism (0 means GOMAXPROCS, 1 forces the serial path).
func DifferenceSnapshotsP(snaps []*Snapshot, parallelism int) ([]IntervalProfile, error) {
	return interval.DifferenceP(snaps, parallelism)
}

// Features builds the clustering feature matrix from interval profiles in
// flat CSR form.
func Features(profiles []IntervalProfile, opts FeatureOptions) FeatureMatrix {
	return interval.FeaturesCSR(profiles, opts)
}

// Phase detection (see internal/phase and internal/cluster).
type (
	// Detection is the full phase-analysis output.
	Detection = phase.Detection
	// DetectOptions configures detection; zero values take the paper's
	// defaults (k ≤ 8, Elbow selection, 95% coverage threshold).
	DetectOptions = phase.Options
	// Phase is one detected phase with its Algorithm 1 sites.
	Phase = phase.Phase
	// Site is one selected instrumentation site.
	Site = phase.Site
	// InstType is the site placement (Body or Loop).
	InstType = phase.InstType
	// ClusterOptions configures the k-means runs, including the
	// Parallelism worker-pool bound; results are identical for every
	// Parallelism value given the same Seed.
	ClusterOptions = cluster.Options
	// ClusterResult is the outcome of one k-means run.
	ClusterResult = cluster.Result
)

// Instrumentation placements (paper §V-B).
const (
	// Body wraps heartbeats around the function body.
	Body = phase.Body
	// Loop places the heartbeat inside a loop within the function.
	Loop = phase.Loop
)

// Detect clusters interval profiles into phases and selects per-phase
// instrumentation sites with Algorithm 1. The k-means sweep and silhouette
// scoring fan out on a worker pool bounded by
// DetectOptions.Cluster.Parallelism (0 means GOMAXPROCS); the detection is
// identical for every bound given the same DetectOptions.Cluster.Seed.
func Detect(profiles []IntervalProfile, opts DetectOptions) (*Detection, error) {
	return phase.Detect(profiles, opts)
}

// SweepKMeans runs k-means for every k in [1, kmax] (clamped to the number
// of points) and returns results indexed by k-1, fanning the k values and
// their restarts out on a pool bounded by opts.Parallelism. Results are
// identical for every Parallelism value given the same opts.Seed.
func SweepKMeans(points [][]float64, kmax int, opts ClusterOptions) ([]*ClusterResult, error) {
	m, err := packPoints(points)
	if err != nil {
		return nil, err
	}
	return cluster.SweepCSR(m, kmax, opts)
}

// MeanSilhouette scores a clustering with the mean silhouette coefficient,
// splitting the O(n²) pairwise-distance work across a pool bounded by
// parallelism (0 means GOMAXPROCS); the score is bit-identical for every
// bound. assign must hold one label in [0, k) per point.
func MeanSilhouette(points [][]float64, assign []int, k, parallelism int) (float64, error) {
	m, err := packPoints(points)
	if err != nil {
		return 0, err
	}
	if len(assign) != len(points) {
		return 0, fmt.Errorf("incprof: %d labels for %d points", len(assign), len(points))
	}
	for i, a := range assign {
		if a < 0 || a >= k {
			return 0, fmt.Errorf("incprof: point %d has label %d, want [0, %d)", i, a, k)
		}
	}
	return cluster.SilhouetteCSR(m, assign, k, parallelism), nil
}

// packPoints packs caller-supplied rows into the CSR form the clusterer
// takes, rejecting ragged rows: packing alone would silently misread them.
func packPoints(points [][]float64) (*xmath.CSR, error) {
	for i, p := range points {
		if len(p) != len(points[0]) {
			return nil, fmt.Errorf("cluster: point %d has dimension %d, want %d", i, len(p), len(points[0]))
		}
	}
	return xmath.NewCSRFromDense(points), nil
}

// AppEKG heartbeats (see internal/heartbeat).
type (
	// EKG is the heartbeat accumulator: Begin/End per site, one record
	// per active ID per collection interval.
	EKG = heartbeat.EKG
	// EKGOptions configures an EKG.
	EKGOptions = heartbeat.Options
	// HeartbeatID identifies one instrumentation site.
	HeartbeatID = heartbeat.ID
	// HeartbeatRecord is one flushed per-interval accumulation.
	HeartbeatRecord = heartbeat.Record
	// HeartbeatSink receives flushed records.
	HeartbeatSink = heartbeat.Sink
	// SiteSpec binds an instrumentation site to a heartbeat ID.
	SiteSpec = heartbeat.SiteSpec
)

// NewEKG creates an AppEKG instance; with EKGOptions.Clock set it flushes
// automatically every interval of virtual time, otherwise it runs
// stand-alone on real time.
func NewEKG(opts EKGOptions) *EKG { return heartbeat.New(opts) }

// Instrument applies heartbeat auto-instrumentation for the given sites to
// a runtime: Body sites beat per invocation, Loop sites beat continuously
// while their function runs.
func Instrument(rt *Runtime, ekg *EKG, sites []SiteSpec, loopPeriod time.Duration) *heartbeat.AutoInstrument {
	return heartbeat.Instrument(rt, ekg, sites, loopPeriod)
}

// SitesFromDetection assigns heartbeat IDs (from 1, in phase order) to a
// detection's sites, reusing IDs for repeated (function, type) pairs.
func SitesFromDetection(det *Detection) []SiteSpec {
	return heartbeat.SitesFromDetection(det)
}

// Online (streaming) phase tracking (see internal/online): the
// deployment-side complement to offline detection — intervals are labeled
// as they arrive, and phase transitions are reported live.
type (
	// OnlineTracker labels a live stream of interval profiles.
	OnlineTracker = online.Tracker
	// OnlineOptions tunes the streaming tracker.
	OnlineOptions = online.Options
	// OnlineEvent describes one observed interval's assignment.
	OnlineEvent = online.Event
)

// NewOnlineTracker creates a streaming phase tracker.
func NewOnlineTracker(opts OnlineOptions) *OnlineTracker { return online.New(opts) }
