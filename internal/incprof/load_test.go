package incprof_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/incprof/incprof/internal/faults"
	"github.com/incprof/incprof/internal/incprof"
	"github.com/incprof/incprof/internal/obs"
	_ "github.com/incprof/incprof/internal/pprof"
	"github.com/incprof/incprof/internal/profile"
)

// pprofStore writes n cumulative pprof dumps of a 40-function service under
// a fresh directory.
func pprofStore(t *testing.T, n int) *incprof.DirStore {
	t.Helper()
	pf, ok := profile.Lookup("pprof")
	if !ok {
		t.Fatal("pprof format not registered")
	}
	st, err := incprof.NewFormatDirStore(t.TempDir(), pf)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < n; seq++ {
		s := &profile.Sample{Seq: seq, Timestamp: time.Duration(seq+1) * time.Second, SamplePeriod: 10 * time.Millisecond}
		for f := 0; f < 40; f++ {
			samples := int64((seq + 1) * (f%7 + 1))
			s.Funcs = append(s.Funcs, profile.FuncRecord{
				Name:     fmt.Sprintf("svc.(*handler%02d).Serve", f),
				Samples:  samples,
				SelfTime: time.Duration(samples) * 10 * time.Millisecond,
				Calls:    samples * 3,
			})
		}
		s.Normalize()
		if err := st.Put(s); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// read reads st's directory once at the given decode parallelism and
// returns what it emitted.
func read(st *incprof.DirStore, f *profile.Format, salvage bool, p int) ([]*profile.Sample, incprof.TailResult, error) {
	sink := &recordingSink{}
	res, err := incprof.ReadDir(st.Dir(), sink, incprof.TailOptions{Format: f, Salvage: salvage, Parallelism: p})
	return sink.snaps, res, err
}

// TestParallelLoadMatchesSerial damages two dumps, one torn and one with a
// flipped tail byte, and reads the directory serially and on eight workers:
// the strict error must name the lower Seq, and the strict and salvage
// reads must give the same snapshots, result and counters either way. The
// directory spans two decode chunks, so a strict read that stops in the
// first must not start decoding the second at any parallelism.
func TestParallelLoadMatchesSerial(t *testing.T) {
	const n = 76
	st := pprofStore(t, n)
	pf, _ := profile.Lookup("pprof")
	if err := faults.TearFile(st.PathFor(3), 1); err != nil {
		t.Fatal(err)
	}
	if err := faults.CorruptTail(st.PathFor(8), 1, 0); err != nil {
		t.Fatal(err)
	}
	type counters struct{ skipped, emitted, calls, tasks int64 }
	count := func() counters {
		return counters{
			obs.C("incprof.read.skipped").Value(), obs.C("incprof.read.emitted").Value(),
			obs.C("par.for.calls").Value(), obs.C("par.for.tasks").Value(),
		}
	}
	type loaded struct {
		strict, salvage counters
		snaps           []*profile.Sample
		res             incprof.TailResult
	}
	load := func(p int) loaded {
		var l loaded
		obs.Enable(obs.Config{Seed: 1})
		defer obs.Disable()
		snaps, _, err := read(st, pf, false, p)
		if err == nil || !strings.Contains(err.Error(), "pprof.out.3:") {
			t.Fatalf("parallelism %d: strict read error %v, want one naming pprof.out.3", p, err)
		}
		if len(snaps) != 3 {
			t.Fatalf("parallelism %d: strict read emitted %d dumps before failing, want seqs 0-2", p, len(snaps))
		}
		l.strict = count()
		obs.Enable(obs.Config{Seed: 1})
		if l.snaps, l.res, err = read(st, pf, true, p); err != nil {
			t.Fatal(err)
		}
		l.salvage = count()
		return l
	}
	serial, parallel := load(1), load(8)
	if len(serial.res.Skipped) != 2 || serial.res.Skipped[0].Seq != 3 || serial.res.Skipped[1].Seq != 8 || serial.res.Emitted != n-2 {
		t.Fatalf("serial salvage result %+v, want %d emitted and seqs 3, 8 skipped", serial.res, n-2)
	}
	if !reflect.DeepEqual(serial.snaps, parallel.snaps) {
		t.Fatal("parallel salvage read decoded different snapshots")
	}
	if !reflect.DeepEqual(serial.res, parallel.res) {
		t.Fatalf("salvage results differ:\n serial   %+v\n parallel %+v", serial.res, parallel.res)
	}
	if want := (counters{emitted: 3, calls: 1, tasks: 64}); serial.strict != want || parallel.strict != want {
		t.Fatalf("strict counters: serial %+v, parallel %+v; want %+v", serial.strict, parallel.strict, want)
	}
	if want := (counters{2, n - 2, 2, n}); serial.salvage != want || parallel.salvage != want {
		t.Fatalf("salvage counters: serial %+v, parallel %+v; want %+v", serial.salvage, parallel.salvage, want)
	}
}

// TestReadOrderAcrossChunks reads more dumps than one decode chunk holds,
// with a corrupt dump past the first chunk boundary: at every parallelism
// the emitted Seqs are the listing's, in order, and the skip lands between
// the right neighbours.
func TestReadOrderAcrossChunks(t *testing.T) {
	const n = 150
	st := pprofStore(t, n)
	pf, _ := profile.Lookup("pprof")
	if err := faults.TearFile(st.PathFor(70), 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8} {
		snaps, res, err := read(st, pf, true, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Emitted != n-1 || len(snaps) != n-1 || len(res.Skipped) != 1 || res.Skipped[0].Seq != 70 {
			t.Fatalf("parallelism %d: emitted %d, skipped %+v; want %d and seq 70", p, res.Emitted, res.Skipped, n-1)
		}
		want := 0
		for _, s := range snaps {
			if want == 70 {
				want++
			}
			if s.Seq != want {
				t.Fatalf("parallelism %d: emitted seq %d where %d belongs", p, s.Seq, want)
			}
			want++
		}
		if res.Last != snaps[len(snaps)-1] {
			t.Fatalf("parallelism %d: Last is not the final emitted snapshot", p)
		}
	}
}

// TestLoadSharesSymbolNames checks a read keeps one string per symbol: the
// same name in every dump points at the same bytes, across decode chunks
// too.
func TestLoadSharesSymbolNames(t *testing.T) {
	st := pprofStore(t, 70)
	pf, _ := profile.Lookup("pprof")
	for _, p := range []int{1, 4} {
		snaps, _, err := read(st, pf, false, p)
		if err != nil {
			t.Fatal(err)
		}
		first := snaps[0].Funcs
		for _, s := range snaps[1:] {
			for i, f := range s.Funcs {
				if f.Name != first[i].Name || unsafe.StringData(f.Name) != unsafe.StringData(first[i].Name) {
					t.Fatalf("parallelism %d: seq %d holds its own copy of %q", p, s.Seq, f.Name)
				}
			}
		}
	}
}
