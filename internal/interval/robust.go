// robust.go is the degraded-mode counterpart of Difference: real IncProf
// deployments lose dumps to node failures, write truncated files when a
// collector dies mid-encode, and restart collectors whose cumulative
// counters then reset. RobustStream absorbs those faults — every
// discontinuity becomes an explicit Gap record plus, depending on policy,
// repaired interval profiles — instead of aborting the analysis the way the
// strict path does.
package interval

import (
	"fmt"
	"time"

	"github.com/incprof/incprof/internal/profile"
)

// maxSplitFanout bounds how many repaired profiles GapSplit synthesizes for
// one gap. A corrupt dump can carry an absurd Seq jump (fuzzing finds
// multi-billion gaps); past the cap the span is repaired as a single
// whole-delta profile instead, which conserves per-function totals exactly
// while keeping the allocation proportional to the data actually seen.
const maxSplitFanout = 4096

// GapPolicy selects how RobustStream repairs the span covered by
// missing dumps.
type GapPolicy int

const (
	// GapSplit divides the observed combined delta evenly across the
	// missing span, emitting one repaired profile per lost interval plus
	// the observed one, so interval indices stay aligned with the
	// fault-free run. This is the default.
	GapSplit GapPolicy = iota
	// GapDrop discards the span entirely: no profiles are emitted for a
	// gap, only the Gap record. Interval indices compress.
	GapDrop
	// GapScale emits a single repaired profile holding the average
	// per-interval rate over the span (the combined delta scaled by the
	// span length).
	GapScale
)

// String names the policy for reports.
func (p GapPolicy) String() string {
	switch p {
	case GapSplit:
		return "split"
	case GapDrop:
		return "drop"
	case GapScale:
		return "scale"
	default:
		return fmt.Sprintf("GapPolicy(%d)", int(p))
	}
}

// GapKind classifies the discontinuity a Gap records.
type GapKind int

const (
	// GapMissing marks one or more lost dumps (Seq numbers absent).
	GapMissing GapKind = iota
	// GapDuplicate marks a dump whose Seq repeated an already-seen one;
	// the later copy is ignored.
	GapDuplicate
	// GapLate marks a dump that arrived with a Seq below the highest one
	// already processed (late, out-of-order data); it is ignored.
	GapLate
	// GapRegression marks a cumulative-counter or timestamp regression —
	// the signature of a collector restart. The stream is resynchronized:
	// the regressed snapshot is taken as cumulative-from-restart.
	GapRegression
	// GapPeriodChange marks a sample-period change mid-stream, also
	// handled by resynchronizing.
	GapPeriodChange
)

// String names the kind for reports.
func (k GapKind) String() string {
	switch k {
	case GapMissing:
		return "missing"
	case GapDuplicate:
		return "duplicate"
	case GapLate:
		return "late"
	case GapRegression:
		return "regression"
	case GapPeriodChange:
		return "period-change"
	default:
		return fmt.Sprintf("GapKind(%d)", int(k))
	}
}

// Gap records one repaired discontinuity in the snapshot stream.
type Gap struct {
	// Kind classifies the discontinuity.
	Kind GapKind
	// FromSeq and ToSeq are the dump sequence numbers bounding the gap:
	// the last dump seen before it (-1 when the stream starts inside the
	// gap) and the first dump seen after it.
	FromSeq, ToSeq int
	// Missing is the number of dumps lost inside the gap (0 for
	// duplicates, late arrivals, and pure resyncs).
	Missing int
	// FirstProfile indexes the first profile of the stream synthesized
	// from this gap; -1 when the policy emitted none.
	FirstProfile int
}

// RobustStream is the robust differencer: snapshots push one at a time and
// the stream retains only the previous kept snapshot plus two clock-rebase
// scalars — O(1) memory in the run length — instead of the whole dump list.
// Nil snapshots are skipped, duplicate and late ones recorded as gaps and
// dropped, and a clock that runs backwards rebases every following
// timestamp onto the end of the previous segment, so Start/End stay
// monotone.
//
// RobustStream is not safe for concurrent use.
type RobustStream struct {
	policy GapPolicy

	prev      *profile.Sample // last kept snapshot
	prevAdj   time.Duration   // its rebased timestamp
	tsOffset  time.Duration   // accumulated clock-restart rebase
	started   bool            // at least one snapshot kept
	pushed    int             // snapshots pushed, nil or not (error reporting)
	nProfiles int             // profiles emitted so far (Index / FirstProfile)
	cells     []Cell          // Push's scratch: the pair's cells,
	share     []Cell          // one share of them,
	delta     Delta           // and the interval handed to emit
}

// NewRobustStream returns an empty stream repairing missing spans under
// policy.
func NewRobustStream(policy GapPolicy) *RobustStream {
	return &RobustStream{policy: policy}
}

// Push ingests the next snapshot: it hands each gap the snapshot reveals to
// onGap, then each interval it completes to emit, in stream order, and
// returns emit's first error. A nil snapshot, a duplicate, or a late arrival
// completes no interval; the latter two report their Gap.
func (r *RobustStream) Push(s *profile.Sample, onGap func(Gap), emit func(*Delta) error) error {
	r.pushed++
	if s == nil {
		return nil
	}
	if r.started {
		if s.Seq == r.prev.Seq {
			onGap(Gap{Kind: GapDuplicate, FromSeq: s.Seq, ToSeq: s.Seq, FirstProfile: -1})
			return nil
		}
		if s.Seq < r.prev.Seq {
			onGap(Gap{Kind: GapLate, FromSeq: r.prev.Seq, ToSeq: s.Seq, FirstProfile: -1})
			return nil
		}
	}
	adj := r.tsOffset + s.Timestamp
	restart := false
	if r.started && adj < r.prevAdj {
		// The collector's clock restarted: rebase this and all following
		// timestamps onto the end of the previous segment.
		r.tsOffset = r.prevAdj
		adj = r.tsOffset + s.Timestamp
		restart = true
	}
	var start time.Duration
	if r.started {
		start = r.prevAdj
	}
	prev := r.prev
	r.prev, r.prevAdj, r.started = s, adj, true

	prevSeq := -1
	if prev != nil {
		prevSeq = prev.Seq
	}
	missing := s.Seq - prevSeq - 1

	// The pair needs a resync when the clock (caught above) or the
	// counters regressed, or the sample period changed: the cumulative
	// counters reset, so the snapshot is taken as cumulative since the
	// restart, i.e. differenced against zero.
	resync, kind := restart, GapRegression
	if prev != nil && !resync && s.SamplePeriod != prev.SamplePeriod {
		resync, kind = true, GapPeriodChange
	}
	base := prev
	if resync {
		base = nil
	}
	cells, _, ok := diff(base, s, r.cells[:0])
	if !ok {
		resync = true
		cells, _, _ = diff(nil, s, cells[:0])
	}
	r.cells = cells

	// Repair: parts intervals share the span's delta evenly (GapSplit), or
	// one holds it divided by scale (GapScale).
	parts, scale := 1, 1
	var gap *Gap
	switch {
	case resync:
		gap = &Gap{Kind: kind, FromSeq: prevSeq, ToSeq: s.Seq, Missing: max(missing, 0)}
	case missing > 0:
		gap = &Gap{Kind: GapMissing, FromSeq: prevSeq, ToSeq: s.Seq, Missing: missing}
		switch r.policy {
		case GapDrop:
			parts = 0
		case GapScale:
			scale = missing + 1
		default: // GapSplit
			// A gap too wide to split (likely a corrupt Seq) keeps the
			// whole delta in one repaired interval, so totals are still
			// conserved without allocating millions of them.
			if missing+1 <= maxSplitFanout {
				parts = missing + 1
			}
		}
	}
	if gap != nil {
		gap.FirstProfile = -1
		if parts > 0 {
			gap.FirstProfile = r.nProfiles
		}
		onGap(*gap)
	}
	r.nProfiles += parts
	d := &r.delta
	d.Repaired, d.funcs = gap != nil, s.Funcs
	span := adj - start
	for j := 0; j < parts; j++ {
		d.Start = start + time.Duration(j)*span/time.Duration(parts)
		d.End = start + time.Duration(j+1)*span/time.Duration(parts)
		if j == parts-1 {
			d.End = adj
		}
		d.Cells = r.cells
		if n := max(parts, scale); n > 1 {
			// The j-th of n even shares; a scaled interval takes the
			// first, the delta divided by n.
			r.share = shares(r.cells, j, n, r.share[:0])
			d.Cells = r.share
		}
		if err := emit(d); err != nil {
			return err
		}
	}
	return nil
}

// shares appends to out the j-th of n even shares of cells, the last share
// absorbing the integer remainders so per-function totals are conserved
// exactly; a share that is not positive is dropped, and a cell left with
// none.
func shares(cells []Cell, j, n int, out []Cell) []Cell {
	for _, c := range cells {
		sc := Cell{
			ID:        c.ID,
			Self:      max(time.Duration(share(int64(c.Self), j, n)), 0),
			ExactSelf: max(time.Duration(share(int64(c.ExactSelf), j, n)), 0),
			Calls:     max(share(c.Calls, j, n), 0),
		}
		if !sc.empty() {
			out = append(out, sc)
		}
	}
	return out
}

// Profiles returns the number of profiles emitted so far.
func (r *RobustStream) Profiles() int { return r.nProfiles }

// RobustStreamState is the full serializable state of a RobustStream: a
// stream restored from it continues exactly where the exported one stopped —
// same repairs, same indices, same rebased timestamps — which is what the
// streaming engine's checkpoint/restore path relies on.
type RobustStreamState struct {
	Policy    GapPolicy
	Prev      *profile.Sample
	PrevAdj   time.Duration
	TSOffset  time.Duration
	Started   bool
	Pushed    int
	NProfiles int
}

// State exports the stream's state. The previous snapshot is deep-copied so
// the state stays valid however the live stream moves on.
func (r *RobustStream) State() RobustStreamState {
	st := RobustStreamState{
		Policy:    r.policy,
		PrevAdj:   r.prevAdj,
		TSOffset:  r.tsOffset,
		Started:   r.started,
		Pushed:    r.pushed,
		NProfiles: r.nProfiles,
	}
	if r.prev != nil {
		st.Prev = r.prev.Clone()
	}
	return st
}

// RestoreRobustStream rebuilds a stream from an exported state. Pushing the
// same suffix of snapshots into the restored stream yields byte-identical
// profiles and gaps to the original stream continuing uninterrupted.
func RestoreRobustStream(st RobustStreamState) *RobustStream {
	r := &RobustStream{
		policy:    st.Policy,
		prevAdj:   st.PrevAdj,
		tsOffset:  st.TSOffset,
		started:   st.Started,
		pushed:    st.Pushed,
		nProfiles: st.NProfiles,
	}
	if st.Prev != nil {
		r.prev = st.Prev.Clone()
	}
	return r
}

// Err returns the terminal validation error of a drained stream: pushing
// only nils, duplicates, and late arrivals leaves no usable snapshot. It
// returns nil while the stream is healthy (or still empty with nothing
// pushed).
func (r *RobustStream) Err() error {
	if !r.started && r.pushed > 0 {
		return fmt.Errorf("interval: no usable snapshots (all %d were nil or duplicates)", r.pushed)
	}
	return nil
}

// share returns the j-th of n even shares of d; the last share absorbs
// the remainder so the shares sum to d.
func share(d int64, j, n int) int64 {
	q := d / int64(n)
	if j == n-1 {
		return d - q*int64(n-1)
	}
	return q
}
