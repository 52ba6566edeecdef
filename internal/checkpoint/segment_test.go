package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/incprof/incprof/internal/interval"
)

// segRows covers every shape an interval takes: nil and empty maps (both
// store no cells), repaired intervals, names shared across maps and
// introduced late, and negative values.
func segRows() []interval.Row {
	return rowsOf([]interval.Profile{
		{Index: 0, Start: 0, End: time.Second,
			Self:      map[string]time.Duration{"work": 900 * time.Millisecond, "io": 100 * time.Millisecond},
			ExactSelf: map[string]time.Duration{"work": 901 * time.Millisecond},
			Calls:     map[string]int64{"work": 3, "io": 1}},
		{Index: 1, Start: time.Second, End: 2 * time.Second, Repaired: true,
			Self:  map[string]time.Duration{},
			Calls: map[string]int64{"late": -2}},
		{Index: 2, Start: 2 * time.Second, End: 3 * time.Second,
			Self:      map[string]time.Duration{"late": time.Millisecond, "work": 5},
			ExactSelf: map[string]time.Duration{"zeta": 7}},
	})
}

// sameRows reports whether two row lists hold the same intervals.
func sameRows(a, b []interval.Row) bool {
	return reflect.DeepEqual(interval.Profiles(a), interval.Profiles(b))
}

func TestSegmentRoundTripAcrossSaves(t *testing.T) {
	dir := t.TempDir()
	path := segPath(dir)
	want := segRows()
	seg := newSegment(path, segIndex{}, nil)
	if _, err := seg.append(want[:1], true); err != nil {
		t.Fatal(err)
	}
	first := seg.index
	n, err := seg.append(want, true)
	if err != nil {
		t.Fatal(err)
	}
	if seg.index.Bytes != first.Bytes+n || seg.index.Profiles != len(want) {
		t.Fatalf("index after second append = %+v, want %d profiles ending at %d", seg.index, len(want), first.Bytes+n)
	}
	if _, err := seg.append(want[:1], true); err == nil {
		t.Fatal("append of a shorter history succeeded")
	}

	got, names, err := readSegment(path, seg.index)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", interval.Profiles(got), interval.Profiles(want))
	}
	if !reflect.DeepEqual(names, seg.names) {
		t.Fatalf("name table %v, appender holds %v", names, seg.names)
	}
	// The first save's prefix still reads on its own: a fallback generation.
	if got, _, err := readSegment(path, first); err != nil || !sameRows(got, want[:1]) {
		t.Fatalf("first prefix: %+v, %v", interval.Profiles(got), err)
	}

	// The bytes do not depend on the store's numbering: the rows read back
	// from the segment encode to the same bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := newSegment(filepath.Join(dir, "again.seg"), segIndex{}, nil)
	if _, err := other.append(got, true); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(other.path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("the same profiles encoded to different bytes")
	}
}

func TestSegmentAppendTruncatesPastValidPrefix(t *testing.T) {
	path := segPath(t.TempDir())
	want := segRows()
	seg := newSegment(path, segIndex{}, nil)
	if _, err := seg.append(want[:2], false); err != nil {
		t.Fatal(err)
	}
	// Bytes a crashed save left past the prefix the newest snapshot names.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("leftover from a crashed save")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, names, err := readSegment(path, seg.index)
	if err != nil {
		t.Fatal(err)
	}
	resumed := newSegment(path, seg.index, names)
	if _, err := resumed.append(want, false); err != nil {
		t.Fatal(err)
	}
	if got, _, err = readSegment(path, resumed.index); err != nil || !sameRows(got, want) {
		t.Fatalf("after resumed append: %+v, %v", interval.Profiles(got), err)
	}
	if info, _ := os.Stat(path); info.Size() != resumed.index.Bytes {
		t.Fatalf("segment is %d bytes, index names %d", info.Size(), resumed.index.Bytes)
	}
}

func TestReadSegmentRejectsWhatTheIndexDoesNotMatch(t *testing.T) {
	path := segPath(t.TempDir())
	seg := newSegment(path, segIndex{}, nil)
	if _, err := seg.append(segRows(), false); err != nil {
		t.Fatal(err)
	}
	idx := seg.index
	cases := map[string]segIndex{
		"longer than the file": {Profiles: idx.Profiles, Bytes: idx.Bytes + 1},
		"4 GiB length":         {Profiles: idx.Profiles, Bytes: 1 << 32},
		"mid-record":           {Profiles: idx.Profiles, Bytes: idx.Bytes - 1},
		"wrong count":          {Profiles: idx.Profiles + 1, Bytes: idx.Bytes},
		"negative":             {Profiles: -1, Bytes: idx.Bytes},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			var ce *corruptError
			if _, _, err := readSegment(path, bad); !errors.As(err, &ce) {
				t.Fatalf("readSegment(%+v) = %v, want a corruption error", bad, err)
			}
		})
	}
}

// rowsOf stores profiles as rows of one interval store, in order.
func rowsOf(profiles []interval.Profile) []interval.Row {
	b := interval.NewMatrixBuilder(interval.FeatureOptions{})
	for i := range profiles {
		b.Add(&profiles[i])
	}
	return b.Rows()
}
