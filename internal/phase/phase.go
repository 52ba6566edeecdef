// Package phase implements the paper's phase detection and instrumentation
// site identification (paper §V).
//
// Detection clusters per-interval profiles with k-means for k = 1..KMax and
// selects k with the Elbow method (Silhouette and DBSCAN variants exist for
// the ablations); each cluster is a phase. Algorithm 1 then greedily selects
// per-phase instrumentation sites: walking the phase's intervals from the
// most representative (closest to centroid) outward, each uncovered interval
// contributes the active function with the fewest calls (ties broken by
// higher rank), tagged Body if it was called within the interval and Loop if
// it only continued executing, until the coverage threshold (95% by default)
// is reached.
package phase

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/cluster"
	"github.com/incprof/incprof/internal/interval"
	"github.com/incprof/incprof/internal/obs"
	"github.com/incprof/incprof/internal/xmath"
)

// InstType distinguishes the two instrumentation placements of §V-B.
type InstType int

const (
	// Body means begin/end heartbeats wrap the function body.
	Body InstType = iota
	// Loop means the heartbeat belongs inside a loop within the function,
	// chosen when the function runs across intervals without being
	// called (long-lived).
	Loop
)

// String names the instrumentation type as the paper's tables do.
func (t InstType) String() string {
	switch t {
	case Body:
		return "body"
	case Loop:
		return "loop"
	default:
		return fmt.Sprintf("InstType(%d)", int(t))
	}
}

// Site is one selected instrumentation site.
type Site struct {
	// Function is the function to instrument.
	Function string
	// PromotedFrom records the originally-selected function when
	// call-graph site promotion replaced it (see package callgraph);
	// empty otherwise.
	PromotedFrom string
	// Type is the placement (body or loop).
	Type InstType
	// PhasePct is the percentage of the phase's intervals this site
	// covers (an interval is credited to its earliest-selected active
	// site; activity is judged by ActivityFunction so the number stays
	// meaningful across call-graph promotion).
	PhasePct float64
	// AppPct is the percentage of the entire run's intervals this site
	// covers within this phase.
	AppPct float64
}

// ActivityFunction returns the function whose interval activity this site
// represents: the originally-selected function when the site was promoted
// up the call graph (the ancestor may have negligible self time of its
// own), otherwise the site function itself.
func (s *Site) ActivityFunction() string {
	if s.PromotedFrom != "" {
		return s.PromotedFrom
	}
	return s.Function
}

// Phase is one detected phase (one cluster of intervals).
type Phase struct {
	// ID is the phase number; phases are ordered by first occurrence in
	// time.
	ID int
	// Intervals lists member interval indices in ascending order.
	Intervals []int
	// Centroid is the phase's center in feature space.
	Centroid []float64
	// Sites are the selected instrumentation sites in selection order.
	Sites []Site
}

// Duration returns the phase's total time given the collection interval.
func (p *Phase) Duration(collectionInterval time.Duration) time.Duration {
	return time.Duration(len(p.Intervals)) * collectionInterval
}

// Selection chooses how k is picked from the k-means sweep.
type Selection int

const (
	// Elbow is the paper's method: knee of the WCSS curve.
	Elbow Selection = iota
	// Silhouette picks the k maximizing the mean silhouette coefficient.
	Silhouette
)

// String names the selection method.
func (s Selection) String() string {
	switch s {
	case Elbow:
		return "elbow"
	case Silhouette:
		return "silhouette"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Algorithm chooses the clustering algorithm (A2 ablation).
type Algorithm int

const (
	// KMeansAlg is the paper's choice.
	KMeansAlg Algorithm = iota
	// DBSCANAlg is the density-based baseline the paper tried and
	// rejected.
	DBSCANAlg
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case KMeansAlg:
		return "kmeans"
	case DBSCANAlg:
		return "dbscan"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures Detect.
type Options struct {
	// KMax bounds the k-means sweep; 0 means 8, the paper's maximum
	// ("we have not had any applications where the number of phases
	// discovered is greater than five, so eight as a maximum has worked
	// well").
	KMax int
	// CoverageThreshold stops site selection once this fraction of a
	// phase's intervals is covered; 0 means 0.95, the paper's setting.
	CoverageThreshold float64
	// Selection picks k from the sweep (default Elbow).
	Selection Selection
	// Algorithm picks the clustering algorithm (default k-means).
	Algorithm Algorithm
	// Features configures the feature matrix (default: sampled self
	// time, the paper's choice).
	Features interval.FeatureOptions
	// Cluster configures k-means (seed, restarts, and the Parallelism
	// worker-pool bound the sweep and silhouette scoring share).
	Cluster cluster.Options
	// DBSCANMinPts applies to DBSCANAlg; 0 means 3.
	DBSCANMinPts int
	// Span, when non-nil, parents the tracing spans Detect records.
	Span *obs.Span
}

// WithDefaults returns the options with the paper's defaults filled in —
// the exact normalization Detect applies, exported so the streaming engine's
// intermediate refreshes resolve KMax, the coverage threshold, and DBSCAN
// minPts identically to the batch path.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.KMax == 0 {
		o.KMax = 8
	}
	if o.CoverageThreshold == 0 {
		o.CoverageThreshold = 0.95
	}
	if o.DBSCANMinPts == 0 {
		o.DBSCANMinPts = 3
	}
	return o
}

// Detection is the full phase-analysis output.
type Detection struct {
	// Phases holds the detected phases ordered by first occurrence.
	Phases []Phase
	// K is the selected number of clusters.
	K int
	// WCSS is the k-means sweep curve (indexed by k-1); empty for
	// DBSCAN.
	WCSS []float64
	// Matrix is the feature matrix the clustering ran on.
	Matrix interval.Matrix
	// Profiles are the intervals analyzed, as rows of the store the
	// matrix was built from.
	Profiles []interval.Row
	// Options echoes the effective configuration.
	Options Options
	// NoiseIntervals lists intervals DBSCAN labeled as noise (empty for
	// k-means).
	NoiseIntervals []int
}

// Detect runs the full pipeline over per-interval profiles.
func Detect(profiles []interval.Profile, opts Options) (*Detection, error) {
	opts = opts.withDefaults()
	if len(profiles) == 0 {
		return nil, fmt.Errorf("phase: no interval profiles")
	}
	sp := obs.Under(opts.Span, "phase.detect", 0)
	sp.SetInt("profiles", int64(len(profiles))).
		SetStr("algorithm", opts.Algorithm.String()).
		SetStr("selection", opts.Selection.String())
	defer sp.End()

	feat := sp.Child("interval.features")
	// The batch path builds the flat CSR form directly: clustering and site
	// selection consume it natively, so nothing densifies (DESIGN.md §14).
	// Algorithm 1 reads the builder's rows, the one store of the profiles.
	b := interval.NewMatrixBuilder(opts.Features)
	for i := range profiles {
		b.Add(&profiles[i])
	}
	m := b.CSRMatrix()
	feat.SetInt("dims", int64(m.Dims())).End()
	return detectMatrix(b.Rows(), m, nil, opts, sp)
}

// DetectMatrix is Detect over a prebuilt feature matrix: Fit, then every
// interval labeled, phases assembled and Algorithm 1 run exactly as in
// Detect, but the caller supplies the store's rows and the matrix built over
// them. The streaming engine's terminal pass uses it, so its
// incrementally-built store flows through the one detection code path — fed
// the rows and matrix a MatrixBuilder holds and nil rows, DetectMatrix's
// output is byte-identical to Detect's.
//
// sub, when non-nil, lists the strictly ascending row indices the k-means
// sweep and k selection run on; every interval is then labeled with its
// nearest selected centroid, and phase assembly and Algorithm 1 run over all
// of them. Passing every index gives the nil-sub output byte for byte.
// DBSCAN takes only a nil sub.
func DetectMatrix(rows []interval.Row, m interval.Matrix, sub []int, opts Options) (*Detection, error) {
	opts = opts.withDefaults()
	if len(rows) == 0 {
		return nil, fmt.Errorf("phase: no interval profiles")
	}
	if m.NumRows() != len(rows) {
		return nil, fmt.Errorf("phase: matrix has %d rows for %d profiles", m.NumRows(), len(rows))
	}
	if err := checkRows(sub, len(rows), opts.Algorithm); err != nil {
		return nil, err
	}
	sp := obs.Under(opts.Span, "phase.detect", 0)
	sp.SetInt("profiles", int64(len(rows))).
		SetStr("algorithm", opts.Algorithm.String()).
		SetStr("selection", opts.Selection.String())
	defer sp.End()
	return detectMatrix(rows, m, sub, opts, sp)
}

// checkRows validates a row subset of Fit or DetectMatrix against n rows.
func checkRows(rows []int, n int, alg Algorithm) error {
	if rows == nil {
		return nil
	}
	if alg != KMeansAlg {
		return fmt.Errorf("phase: a row subset needs k-means, not %v", alg)
	}
	if len(rows) == 0 {
		return fmt.Errorf("phase: empty row subset")
	}
	for i, r := range rows {
		if r < 0 || r >= n || (i > 0 && r <= rows[i-1]) {
			return fmt.Errorf("phase: row subset is not strictly ascending within [0, %d) at position %d", n, i)
		}
	}
	return nil
}

// refreshRowBudget caps the rows an intermediate live refresh clusters.
const refreshRowBudget = 384

// RefreshRows returns the rows an intermediate live refresh over n
// intervals clusters: nil (every row) when n <= 384, otherwise one row drawn
// from each of 384 equal strata of [0, n) by an RNG seeded from (seed, n).
// The draw depends on nothing else, so a refresh is the same at any
// parallelism and after a resume. A plain stride would alias with a phase
// period near n/384; the per-stratum jitter does not.
func RefreshRows(n int, seed uint64) []int {
	if n <= refreshRowBudget {
		return nil
	}
	rng := xmath.NewRNG(seed ^ uint64(n)*0xd1b54a32d192ed03)
	rows := make([]int, refreshRowBudget)
	for s := range rows {
		lo, hi := s*n/refreshRowBudget, (s+1)*n/refreshRowBudget
		rows[s] = lo + rng.Intn(hi-lo)
	}
	return rows
}

// Model is a fitted clustering: what the k sweep and k selection (or
// DBSCAN) leave before any interval is grouped into a phase or any site is
// selected. A live refresh stops here; DetectMatrix goes on from it.
type Model struct {
	// K is the selected number of clusters.
	K int
	// WCSS is the k-means sweep curve (indexed by k-1); nil for DBSCAN.
	WCSS []float64
	// Centroids holds each cluster's center in the matrix's feature space,
	// indexed by cluster number.
	Centroids [][]float64
	// Assign is each fitted row's cluster, in the order of the rows Fit
	// ran on; DBSCAN marks noise with cluster.Noise.
	Assign []int
}

// Fit runs the clustering half of DetectMatrix on m: the k-means sweep and
// k selection over the rows listed (strictly ascending; nil means every
// row), or DBSCAN over every row. DetectMatrix over the same matrix, rows
// and options reports the same K and WCSS, and its phases' centroids are
// the model's, bit for bit.
func Fit(m interval.Matrix, rows []int, opts Options) (*Model, error) {
	opts = opts.withDefaults()
	if m.NumRows() == 0 {
		return nil, fmt.Errorf("phase: no interval profiles")
	}
	if err := checkRows(rows, m.NumRows(), opts.Algorithm); err != nil {
		return nil, err
	}
	n := m.NumRows()
	if rows != nil {
		n = len(rows)
	}
	sp := obs.Under(opts.Span, "phase.fit", 0)
	sp.SetInt("rows", int64(n)).
		SetStr("algorithm", opts.Algorithm.String()).
		SetStr("selection", opts.Selection.String())
	defer sp.End()
	return fit(m, rows, opts, sp)
}

// Nearest returns the cluster whose centroid is nearest the packed row
// (vals, cols): the ascending strict-< scan on the exact packed kernel,
// which is the assignment a converged Lloyd pass leaves. A distance is
// abandoned once its partial sum reaches the best so far; such a centroid
// could not win, so the label is that of the full scan.
func (md *Model) Nearest(vals []float64, cols []int32) int {
	best, bestD := 0, math.Inf(1)
	for c, cent := range md.Centroids {
		if d, full := xmath.SquaredEuclideanPackedDenseBounded(vals, cols, cent, bestD); full && d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// fit is the shared core of Fit and DetectMatrix; opts must have defaults
// applied, rows must have passed checkRows, and sp is the enclosing span.
func fit(m interval.Matrix, rows []int, opts Options, sp *obs.Span) (*Model, error) {
	if m.Dims() == 0 {
		return nil, fmt.Errorf("phase: no active functions in any interval")
	}
	switch opts.Algorithm {
	case KMeansAlg:
		copts := opts.Cluster
		if copts.Span == nil {
			copts.Span = sp
		}
		sweep := m.Sparse
		if rows != nil {
			sweep = sweep.SelectRows(rows)
		}
		// Under silhouette selection the sweep and the selection share one
		// pairwise matrix (cluster.Points).
		pts, err := cluster.NewPoints(sweep, opts.Selection == Silhouette)
		if err != nil {
			return nil, err
		}
		defer pts.Release()
		results, err := pts.Sweep(opts.KMax, copts)
		if err != nil {
			return nil, err
		}
		md := &Model{WCSS: make([]float64, len(results))}
		for i, r := range results {
			md.WCSS[i] = r.WCSS
		}
		sel := sp.Child("phase.select")
		var best *cluster.Result
		if opts.Selection == Silhouette {
			best = pts.SelectSilhouette(results, opts.Cluster.Parallelism)
		} else {
			best = cluster.SelectElbow(results)
		}
		sel.SetStr("method", opts.Selection.String()).SetInt("k", int64(best.K)).End()
		md.K, md.Assign, md.Centroids = best.K, best.Assign, best.Centroids
		return md, nil
	case DBSCANAlg:
		eps := cluster.EstimateEpsCSR(m.Sparse, opts.DBSCANMinPts, 0.9)
		labels, k, err := cluster.DBSCANCSR(m.Sparse, eps, opts.DBSCANMinPts)
		if err != nil {
			return nil, err
		}
		return &Model{K: k, Assign: labels, Centroids: dbscanCentroidsMatrix(m, labels, k)}, nil
	default:
		return nil, fmt.Errorf("phase: unknown algorithm %v", opts.Algorithm)
	}
}

// detectMatrix is the shared core of Detect and DetectMatrix; opts must have
// defaults applied, sub must have passed checkRows, and sp is the enclosing
// phase.detect span.
func detectMatrix(rows []interval.Row, m interval.Matrix, sub []int, opts Options, sp *obs.Span) (*Detection, error) {
	md, err := fit(m, sub, opts, sp)
	if err != nil {
		return nil, err
	}
	det := &Detection{K: md.K, WCSS: md.WCSS, Matrix: m, Profiles: rows, Options: opts}
	assign := md.Assign
	if sub != nil {
		assign = make([]int, m.NumRows())
		for i := range assign {
			assign[i] = md.Nearest(m.Sparse.Row(i))
		}
	}
	for i, l := range assign {
		if l == cluster.Noise {
			det.NoiseIntervals = append(det.NoiseIntervals, i)
		}
	}

	det.Phases = buildPhases(assign, md.Centroids, det.K)
	sites := sp.Child("phase.sites")
	total := len(rows)
	nsites := 0
	for i := range det.Phases {
		selectSites(&det.Phases[i], rows, m, opts.CoverageThreshold, total)
		nsites += len(det.Phases[i].Sites)
	}
	sites.SetInt("phases", int64(len(det.Phases))).SetInt("sites", int64(nsites)).End()
	sp.SetInt("k", int64(det.K))
	return det, nil
}

// dbscanCentroidsMatrix computes cluster means for DBSCAN labels so that
// Algorithm 1's centroid-distance ordering applies unchanged. The CSR
// accumulation skips only exact-zero cells; a skipped x += 0 cannot change x
// (accumulators never hold -0: sums starting at +0 stay +0 under zero
// addends), so the means are bit-identical to a dense accumulation.
func dbscanCentroidsMatrix(m interval.Matrix, labels []int, k int) [][]float64 {
	if k == 0 {
		return nil
	}
	dim := m.Dims()
	cents := make([][]float64, k)
	counts := make([]int, k)
	for c := range cents {
		cents[c] = make([]float64, dim)
	}
	for i, l := range labels {
		if l < 0 {
			continue
		}
		counts[l]++
		vals, cols := m.Sparse.Row(i)
		for t, d := range cols {
			cents[l][d] += vals[t]
		}
	}
	for c := range cents {
		if counts[c] == 0 {
			continue
		}
		inv := 1 / float64(counts[c])
		for d := range cents[c] {
			cents[c][d] *= inv
		}
	}
	return cents
}

// BuildPhases groups intervals by cluster assignment and orders phases by
// first occurrence in time, renumbering IDs accordingly — the phase-assembly
// step of Detect. Sites are not selected; see SelectPhaseSites. The profiles
// are not read: phase assembly needs only the assignment.
func BuildPhases(profiles []interval.Profile, assign []int, centroids [][]float64, k int) []Phase {
	return buildPhases(assign, centroids, k)
}

// buildPhases groups intervals by cluster and orders phases by first
// occurrence in time, renumbering IDs accordingly.
func buildPhases(assign []int, centroids [][]float64, k int) []Phase {
	members := make([][]int, k)
	for i, c := range assign {
		if c < 0 {
			continue // DBSCAN noise
		}
		members[c] = append(members[c], i)
	}
	type ordered struct {
		cluster int
		first   int
	}
	var order []ordered
	for c := 0; c < k; c++ {
		if len(members[c]) == 0 {
			continue
		}
		order = append(order, ordered{c, members[c][0]})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].first < order[j].first })
	phases := make([]Phase, 0, len(order))
	for id, o := range order {
		var centroid []float64
		if o.cluster < len(centroids) {
			centroid = centroids[o.cluster]
		}
		phases = append(phases, Phase{ID: id, Intervals: members[o.cluster], Centroid: centroid})
	}
	return phases
}
