package interval

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/profile"
	"github.com/incprof/incprof/internal/xmath"
)

// This file keeps the map-building differencing kernels the merge walk
// replaced, as the reference FuzzKernelMatchesReference holds diff,
// StrictPair and RobustStream to: each pair builds three string-keyed maps
// (referenceProfile), looking every function up in the predecessor by
// binary search, after a separate regression pre-walk; the robust driver
// repairs gaps on those maps. Profiles reach the store through Add.

// referenceRegressed reports the first function of s whose cumulative
// samples, self time, or calls fell below its record in prev.
func referenceRegressed(prev, s *profile.Sample) (string, bool) {
	j := 0
	for _, rec := range s.Funcs {
		for j < len(prev.Funcs) && prev.Funcs[j].Name < rec.Name {
			j++
		}
		var prevRec profile.FuncRecord
		if j < len(prev.Funcs) && prev.Funcs[j].Name == rec.Name {
			prevRec = prev.Funcs[j]
		}
		if rec.Samples < prevRec.Samples || rec.SelfTime < prevRec.SelfTime || rec.Calls < prevRec.Calls {
			return rec.Name, true
		}
	}
	return "", false
}

// referenceProfile computes one interval profile from a snapshot pair
// (base may be nil, meaning cumulative-from-zero). Deltas that are not
// positive are left out.
func referenceProfile(s, base *profile.Sample, start, end time.Duration) Profile {
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

// referenceStrictPair is StrictPair over maps.
func referenceStrictPair(prev, s *profile.Sample) (Profile, error) {
	if prev == nil {
		return referenceProfile(s, nil, 0, s.Timestamp), nil
	}
	if s.Timestamp < prev.Timestamp {
		return Profile{}, fmt.Errorf("interval: snapshot %d at %v precedes snapshot %d at %v",
			s.Seq, s.Timestamp, prev.Seq, prev.Timestamp)
	}
	if s.SamplePeriod != prev.SamplePeriod {
		return Profile{}, fmt.Errorf("interval: sample period changed between snapshots %d and %d", prev.Seq, s.Seq)
	}
	if fn, ok := referenceRegressed(prev, s); ok {
		return Profile{}, fmt.Errorf("interval: cumulative counter for %q regressed between snapshots %d and %d",
			fn, prev.Seq, s.Seq)
	}
	return referenceProfile(s, prev, prev.Timestamp, s.Timestamp), nil
}

// referenceRobustPair differences s against its kept predecessor, detects
// resyncs and missing spans, and applies the repair policy.
func referenceRobustPair(prev, s *profile.Sample, start, end time.Duration, tsRestart bool, policy GapPolicy) ([]Profile, *Gap) {
	prevSeq := -1
	if prev != nil {
		prevSeq = prev.Seq
	}
	missing := s.Seq - prevSeq - 1
	resync := tsRestart
	kind := GapRegression
	if prev != nil && !resync && s.SamplePeriod != prev.SamplePeriod {
		resync = true
		kind = GapPeriodChange
	}
	if prev != nil && !resync {
		_, resync = referenceRegressed(prev, s)
	}
	base := prev
	if resync {
		base = nil
	}
	switch {
	case resync:
		p := referenceProfile(s, base, start, end)
		p.Repaired = true
		return []Profile{p}, &Gap{Kind: kind, FromSeq: prevSeq, ToSeq: s.Seq, Missing: max(missing, 0)}
	case missing > 0:
		gap := &Gap{Kind: GapMissing, FromSeq: prevSeq, ToSeq: s.Seq, Missing: missing}
		switch policy {
		case GapDrop:
			return nil, gap
		case GapScale:
			p := referenceProfile(s, base, start, end)
			referenceScale(&p, missing+1)
			p.Repaired = true
			return []Profile{p}, gap
		default:
			if missing+1 > maxSplitFanout {
				p := referenceProfile(s, base, start, end)
				p.Repaired = true
				return []Profile{p}, gap
			}
			return referenceSplit(s, base, start, end, missing+1), gap
		}
	default:
		return []Profile{referenceProfile(s, base, start, end)}, nil
	}
}

// referenceSplit divides the combined delta of a gap-spanning pair into n
// repaired profiles with even time bounds.
func referenceSplit(s, base *profile.Sample, start, end time.Duration, n int) []Profile {
	whole := referenceProfile(s, base, start, end)
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
			if v := time.Duration(share(int64(d), j, n)); v > 0 {
				p.Self[fn] = v
			}
		}
		for fn, d := range whole.ExactSelf {
			if v := time.Duration(share(int64(d), j, n)); v > 0 {
				p.ExactSelf[fn] = v
			}
		}
		for fn, c := range whole.Calls {
			if v := share(c, j, n); v > 0 {
				p.Calls[fn] = v
			}
		}
		out[j] = p
	}
	return out
}

// referenceScale divides every per-function quantity by n.
func referenceScale(p *Profile, n int) {
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

// referenceRobust runs RobustStream's driver over the reference kernel:
// duplicates and late arrivals dropped, a clock that runs backwards rebased
// onto the end of the previous segment.
func referenceRobust(snaps []*profile.Sample, policy GapPolicy) ([]Profile, []Gap) {
	var (
		profiles          []Profile
		gaps              []Gap
		prev              *profile.Sample
		prevAdj, tsOffset time.Duration
	)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if prev != nil {
			if s.Seq == prev.Seq {
				gaps = append(gaps, Gap{Kind: GapDuplicate, FromSeq: s.Seq, ToSeq: s.Seq, FirstProfile: -1})
				continue
			}
			if s.Seq < prev.Seq {
				gaps = append(gaps, Gap{Kind: GapLate, FromSeq: prev.Seq, ToSeq: s.Seq, FirstProfile: -1})
				continue
			}
		}
		adj := tsOffset + s.Timestamp
		restart := false
		if prev != nil && adj < prevAdj {
			tsOffset = prevAdj
			adj = tsOffset + s.Timestamp
			restart = true
		}
		var start time.Duration
		if prev != nil {
			start = prevAdj
		}
		ps, g := referenceRobustPair(prev, s, start, adj, restart, policy)
		if g != nil {
			g.FirstProfile = -1
			if len(ps) > 0 {
				g.FirstProfile = len(profiles)
			}
			gaps = append(gaps, *g)
		}
		profiles = append(profiles, ps...)
		prev, prevAdj = s, adj
	}
	return profiles, gaps
}

// kernelStream draws a random cumulative stream over a few names, one of
// them excluded by referenceExclude: names appear and vanish mid-run,
// counters hold still, leap so far that their sampled time overflows, or
// (when falls) fall, a dump repeats a name with
// other counters, dumps go missing, repeat, arrive late or nil, the clock
// runs backwards and the sample period changes.
func kernelStream(rng *xmath.RNG, n int, falls bool) []*profile.Sample {
	names := []string{"MPI_Wait", "alpha", "beta", "delta", "gamma", "omega"}
	cum := make([]profile.FuncRecord, len(names))
	period := 10 * time.Millisecond
	var ts time.Duration
	seq := 0
	snaps := make([]*profile.Sample, 0, n)
	for len(snaps) < n {
		s := &profile.Sample{Seq: seq, SamplePeriod: period}
		ts += time.Duration(rng.Intn(3)) * time.Second
		s.Timestamp = ts
		for i := range names {
			c := &cum[i]
			c.Name = names[i]
			switch rng.Intn(8) {
			case 0: // vanishes from this dump
				continue
			case 1: // holds still
			case 2: // falls
				if !falls {
					break
				}
				c.Samples = max(c.Samples-int64(rng.Intn(3)), 0)
				c.SelfTime = max(c.SelfTime-time.Duration(rng.Intn(3))*time.Millisecond, 0)
				c.Calls = max(c.Calls-int64(rng.Intn(3)), 0)
			case 3: // leaps, now and then past what a Duration of samples holds
				c.Samples += int64(rng.Intn(2)) << 60
			default:
				c.Samples += int64(rng.Intn(4))
				c.SelfTime += time.Duration(rng.Intn(40)) * time.Millisecond
				c.Calls += int64(rng.Intn(3))
			}
			s.Funcs = append(s.Funcs, *c)
			if rng.Intn(12) == 0 { // the name again, with other counters
				again := *c
				again.Samples += int64(rng.Intn(3))
				again.Calls += int64(rng.Intn(3))
				if falls {
					again.Samples--
					again.Calls--
				}
				s.Funcs = append(s.Funcs, again)
			}
		}
		seq++
		switch rng.Intn(14) {
		case 0:
			seq += 1 + rng.Intn(3) // missing dumps
		case 1:
			seq = max(seq-2, 0) // a duplicate or late one next
		case 2:
			ts = 0 // the clock restarts
		case 3:
			period += time.Millisecond
		case 4:
			snaps = append(snaps, nil)
		case 5:
			if falls {
				for i := range cum { // the collector restarts
					cum[i] = profile.FuncRecord{}
				}
			}
		}
		snaps = append(snaps, s)
	}
	return snaps
}

func referenceExclude(fn string) bool { return strings.HasPrefix(fn, "MPI_") }

// sameStores fails unless two stores hold the same rows: bounds, repair
// flags, cells by id, the names those ids stand for, and the matrix.
func sameStores(t *testing.T, got, want *MatrixBuilder) {
	t.Helper()
	gr, wr := got.Rows(), want.Rows()
	if len(gr) != len(wr) {
		t.Fatalf("%d rows, reference %d", len(gr), len(wr))
	}
	for i := range gr {
		g, w := &gr[i], &wr[i]
		if g.Start != w.Start || g.End != w.End || g.Repaired != w.Repaired {
			t.Fatalf("row %d: %v-%v repaired %v, reference %v-%v repaired %v", i, g.Start, g.End, g.Repaired, w.Start, w.End, w.Repaired)
		}
		if gc, wc := g.Cells(nil), w.Cells(nil); !reflect.DeepEqual(gc, wc) {
			t.Fatalf("row %d: cells %+v, reference %+v", i, gc, wc)
		}
	}
	if len(gr) > 0 {
		if gr[0].NumFuncs() != wr[0].NumFuncs() {
			t.Fatalf("%d functions stored, reference %d", gr[0].NumFuncs(), wr[0].NumFuncs())
		}
		for id := int32(0); id < int32(gr[0].NumFuncs()); id++ {
			if gr[0].Name(id) != wr[0].Name(id) {
				t.Fatalf("id %d names %q, reference %q", id, gr[0].Name(id), wr[0].Name(id))
			}
		}
	}
	if gm, wm := got.CSRMatrix(), want.CSRMatrix(); !reflect.DeepEqual(gm, wm) {
		t.Fatalf("matrix\n%+v\nreference\n%+v", gm, wm)
	}
}

// FuzzKernelMatchesReference holds the merge-walk kernel to the map-building
// reference over random cumulative streams: strict mode must store the same
// rows up to the same first error, with the same text naming the same
// regressed function, and DifferenceP must hand out the same profiles;
// robust mode, under every gap policy, must store the same rows and report
// the same gaps.
func FuzzKernelMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(12*seed), uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, mode, kind uint8) {
		rng := xmath.NewRNG(seed)
		opts := FeatureOptions{Kind: FeatureKind(kind % 3), Exclude: referenceExclude}
		got, want := NewMatrixBuilder(opts), NewMatrixBuilder(opts)
		add := func(d *Delta) error {
			got.AddCells(d.Start, d.End, d.Repaired, d.Cells, d.Name)
			return nil
		}
		snaps := kernelStream(rng, 1+int(size)%60, mode&4 != 0)
		if mode%4 == 3 { // strict, which takes no nil snapshot
			snaps = slices.DeleteFunc(snaps, func(s *profile.Sample) bool { return s == nil })
			var gotErr, wantErr error
			var prev *profile.Sample
			var buf []Cell
			for _, s := range snaps {
				d, err := StrictPair(prev, s, buf)
				if err != nil {
					gotErr = err
					break
				}
				buf = d.Cells
				add(&d)
				prev = s
			}
			var profs []Profile
			prev = nil
			for i, s := range snaps {
				p, err := referenceStrictPair(prev, s)
				if err != nil {
					wantErr = err
					break
				}
				p.Index = i
				profs = append(profs, p)
				want.Add(&p)
				prev = s
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("error %v, reference %v", gotErr, wantErr)
			}
			sameStores(t, got, want)
			batch, err := DifferenceP(snaps, 1)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("DifferenceP error %v, reference %v", err, wantErr)
			}
			// A profile handed out holds the non-zero values only: the
			// reference also kept a sampled time that overflowed to zero.
			for i := range profs {
				maps.DeleteFunc(profs[i].Self, func(_ string, v time.Duration) bool { return v == 0 })
			}
			if err == nil && !reflect.DeepEqual(batch, profs) {
				t.Fatalf("DifferenceP\n%+v\nreference\n%+v", batch, profs)
			}
			return
		}
		policy := GapPolicy(mode % 4)
		rs := NewRobustStream(policy)
		var gaps []Gap
		for _, s := range snaps {
			if err := rs.Push(s, func(g Gap) { gaps = append(gaps, g) }, add); err != nil {
				t.Fatal(err)
			}
		}
		profs, wantGaps := referenceRobust(snaps, policy)
		for i := range profs {
			want.Add(&profs[i])
		}
		if !reflect.DeepEqual(gaps, wantGaps) {
			t.Fatalf("gaps %+v, reference %+v", gaps, wantGaps)
		}
		if rs.Profiles() != len(profs) {
			t.Fatalf("%d profiles counted, reference %d", rs.Profiles(), len(profs))
		}
		sameStores(t, got, want)
	})
}
