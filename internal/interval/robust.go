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

// robustPair is RobustStream's kernel: it differences s against its kept
// predecessor (nil at stream start), detects resyncs and missing spans, and
// applies the repair policy, returning the profiles the pair yields and the
// gap it repaired, if any. tsRestart reports that the stream already caught
// a clock regression at this snapshot.
func robustPair(prev, s *profile.Sample, start, end time.Duration, tsRestart bool, policy GapPolicy) ([]Profile, *Gap) {
	prevSeq := -1
	if prev != nil {
		prevSeq = prev.Seq
	}
	missing := s.Seq - prevSeq - 1

	// Decide whether the pair needs a resync: the counters (or the clock,
	// caught by the caller) regressed, or the sample period changed.
	resync := tsRestart
	kind := GapRegression
	if prev != nil && !resync && s.SamplePeriod != prev.SamplePeriod {
		resync = true
		kind = GapPeriodChange
	}
	if prev != nil && !resync {
		_, resync = regressed(prev, s)
	}

	base := prev
	if resync {
		// Cumulative counters reset: the snapshot is taken as cumulative
		// since the restart, i.e. differenced against zero.
		base = nil
	}

	switch {
	case resync:
		p := makeProfile(s, base, start, end)
		p.Repaired = true
		return []Profile{p}, &Gap{Kind: kind, FromSeq: prevSeq, ToSeq: s.Seq, Missing: max(missing, 0)}
	case missing > 0:
		gap := &Gap{Kind: GapMissing, FromSeq: prevSeq, ToSeq: s.Seq, Missing: missing}
		switch policy {
		case GapDrop:
			return nil, gap
		case GapScale:
			p := makeProfile(s, base, start, end)
			scaleProfile(&p, missing+1)
			p.Repaired = true
			return []Profile{p}, gap
		default: // GapSplit
			if missing+1 > maxSplitFanout {
				// The gap is too wide to split (likely a corrupt Seq): keep
				// the whole delta in one repaired profile so totals are still
				// conserved without allocating millions of profiles.
				p := makeProfile(s, base, start, end)
				p.Repaired = true
				return []Profile{p}, gap
			}
			return splitSpan(s, base, start, end, missing+1), gap
		}
	default:
		return []Profile{makeProfile(s, base, start, end)}, nil
	}
}

// makeProfile computes one interval profile from a snapshot pair (base may
// be nil, meaning cumulative-from-zero): the per-function delta loop both
// differencing kernels share. Deltas that are not positive are left out.
func makeProfile(s, base *profile.Sample, start, end time.Duration) Profile {
	p := Profile{
		Start:     start,
		End:       end,
		Self:      make(map[string]time.Duration),
		ExactSelf: make(map[string]time.Duration),
		Calls:     make(map[string]int64),
	}
	for _, rec := range s.Funcs {
		var baseRec profile.FuncRecord
		if base != nil {
			baseRec, _ = base.Func(rec.Name)
		}
		if d := rec.Samples - baseRec.Samples; d > 0 {
			p.Self[rec.Name] = time.Duration(d) * s.SamplePeriod
		}
		if d := rec.SelfTime - baseRec.SelfTime; d > 0 {
			p.ExactSelf[rec.Name] = d
		}
		if d := rec.Calls - baseRec.Calls; d > 0 {
			p.Calls[rec.Name] = d
		}
	}
	return p
}

// splitSpan divides the combined delta of a gap-spanning pair into n
// repaired profiles with even time bounds; integer remainders accumulate on
// the last share so per-function totals are conserved exactly.
func splitSpan(s, base *profile.Sample, start, end time.Duration, n int) []Profile {
	whole := makeProfile(s, base, start, end)
	span := end - start
	out := make([]Profile, n)
	for j := 0; j < n; j++ {
		p := Profile{
			Start:     start + time.Duration(j)*span/time.Duration(n),
			End:       start + time.Duration(j+1)*span/time.Duration(n),
			Self:      make(map[string]time.Duration),
			ExactSelf: make(map[string]time.Duration),
			Calls:     make(map[string]int64),
			Repaired:  true,
		}
		if j == n-1 {
			p.End = end
		}
		for fn, d := range whole.Self {
			if v := shareDuration(d, j, n); v > 0 {
				p.Self[fn] = v
			}
		}
		for fn, d := range whole.ExactSelf {
			if v := shareDuration(d, j, n); v > 0 {
				p.ExactSelf[fn] = v
			}
		}
		for fn, c := range whole.Calls {
			if v := shareInt64(c, j, n); v > 0 {
				p.Calls[fn] = v
			}
		}
		out[j] = p
	}
	return out
}

// scaleProfile divides every per-function quantity by n (the span length in
// intervals), turning a combined delta into an average per-interval rate.
func scaleProfile(p *Profile, n int) {
	for fn, d := range p.Self {
		if v := d / time.Duration(n); v > 0 {
			p.Self[fn] = v
		} else {
			delete(p.Self, fn)
		}
	}
	for fn, d := range p.ExactSelf {
		if v := d / time.Duration(n); v > 0 {
			p.ExactSelf[fn] = v
		} else {
			delete(p.ExactSelf, fn)
		}
	}
	for fn, c := range p.Calls {
		if v := c / int64(n); v > 0 {
			p.Calls[fn] = v
		} else {
			delete(p.Calls, fn)
		}
	}
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
}

// NewRobustStream returns an empty stream repairing missing spans under
// policy.
func NewRobustStream(policy GapPolicy) *RobustStream {
	return &RobustStream{policy: policy}
}

// Push ingests the next snapshot and returns the profiles and gaps it
// produced, in stream order. A nil snapshot, a duplicate, or a late arrival
// produces no profiles; the latter two produce their Gap record. Returned
// profiles carry their final stream-wide Index values.
func (r *RobustStream) Push(s *profile.Sample) ([]Profile, []Gap) {
	r.pushed++
	if s == nil {
		return nil, nil
	}
	if r.started {
		if s.Seq == r.prev.Seq {
			return nil, []Gap{{Kind: GapDuplicate, FromSeq: s.Seq, ToSeq: s.Seq, FirstProfile: -1}}
		}
		if s.Seq < r.prev.Seq {
			return nil, []Gap{{Kind: GapLate, FromSeq: r.prev.Seq, ToSeq: s.Seq, FirstProfile: -1}}
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
	profiles, g := robustPair(r.prev, s, start, adj, restart, r.policy)
	var gaps []Gap
	if g != nil {
		g.FirstProfile = -1
		if len(profiles) > 0 {
			g.FirstProfile = r.nProfiles
		}
		gaps = append(gaps, *g)
	}
	for i := range profiles {
		profiles[i].Index = r.nProfiles
		r.nProfiles++
	}
	r.prev, r.prevAdj, r.started = s, adj, true
	return profiles, gaps
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

// shareInt64 returns the j-th of n even shares of d; the last share absorbs
// the remainder so the shares sum to d.
func shareInt64(d int64, j, n int) int64 {
	q := d / int64(n)
	if j == n-1 {
		return d - q*int64(n-1)
	}
	return q
}

// shareDuration is shareInt64 over a time.Duration.
func shareDuration(d time.Duration, j, n int) time.Duration {
	return time.Duration(shareInt64(int64(d), j, n))
}
