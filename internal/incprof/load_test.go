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

// TestParallelLoadMatchesSerial damages two dumps, one torn and one with a
// flipped tail byte, and loads the directory serially and on eight workers:
// the strict error must name the lower Seq, and the salvage load must give
// the same snapshots, report and counters either way.
func TestParallelLoadMatchesSerial(t *testing.T) {
	st := pprofStore(t, 12)
	if err := faults.TearFile(st.PathFor(3), 1); err != nil {
		t.Fatal(err)
	}
	if err := faults.CorruptTail(st.PathFor(8), 1, 0); err != nil {
		t.Fatal(err)
	}
	type salvaged struct {
		snaps           []*profile.Sample
		report          incprof.LoadReport
		skipped, loaded int64
	}
	load := func(p int) salvaged {
		obs.Enable(obs.Config{Seed: 1})
		defer obs.Disable()
		_, err := st.SnapshotsP(p)
		if err == nil || !strings.Contains(err.Error(), "pprof.out.3:") {
			t.Fatalf("parallelism %d: strict load error %v, want one naming pprof.out.3", p, err)
		}
		var s salvaged
		if s.snaps, s.report, err = st.SnapshotsSalvageP(p); err != nil {
			t.Fatal(err)
		}
		s.skipped = obs.C("incprof.salvage.skipped").Value()
		s.loaded = obs.C("incprof.salvage.loaded").Value()
		return s
	}
	serial, parallel := load(1), load(8)
	if len(serial.report.Skipped) != 2 || serial.report.Skipped[0].Seq != 3 || serial.report.Skipped[1].Seq != 8 || serial.report.Loaded != 10 {
		t.Fatalf("serial salvage report %+v, want 10 loaded and seqs 3, 8 skipped", serial.report)
	}
	if !reflect.DeepEqual(serial.snaps, parallel.snaps) {
		t.Fatal("parallel salvage load decoded different snapshots")
	}
	if !reflect.DeepEqual(serial.report, parallel.report) {
		t.Fatalf("salvage reports differ:\n serial   %+v\n parallel %+v", serial.report, parallel.report)
	}
	if serial.skipped != parallel.skipped || serial.loaded != parallel.loaded {
		t.Fatalf("salvage counters differ: serial skipped %d loaded %d, parallel skipped %d loaded %d",
			serial.skipped, serial.loaded, parallel.skipped, parallel.loaded)
	}
}

// TestLoadSharesSymbolNames checks a load keeps one string per symbol: the
// same name in every dump points at the same bytes.
func TestLoadSharesSymbolNames(t *testing.T) {
	st := pprofStore(t, 6)
	for _, p := range []int{1, 4} {
		snaps, err := st.SnapshotsP(p)
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
