package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/incprof/incprof/internal/interval"
)

// writeCorpus generates w's corpus at 1/50 size and writes it to a fresh
// directory, returning the corpus and the file contents by name.
func writeCorpus(t *testing.T, w workload, seed uint64) (*corpus, map[string][]byte) {
	t.Helper()
	c := generate(w.scaled(50).corpus, seed)
	dir := t.TempDir()
	if err := c.write(dir, 0, len(c.Dumps)); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	if len(files) != len(c.Dumps) {
		t.Fatalf("%d files for %d dumps", len(files), len(c.Dumps))
	}
	return c, files
}

func TestSameSeedSameCorpus(t *testing.T) {
	for _, name := range []string{"hpc-long", "service-wide"} { // gmon and pprof
		w, _ := lookupWorkload(name)
		a, fa := writeCorpus(t, w, 7)
		b, fb := writeCorpus(t, w, 7)
		if !reflect.DeepEqual(fa, fb) {
			t.Errorf("%s: the same seed wrote different files", name)
		}
		if !reflect.DeepEqual(a.Truth, b.Truth) || a.Dims != b.Dims {
			t.Errorf("%s: the same seed gave different ground truth", name)
		}
		_, fc := writeCorpus(t, w, 8)
		same := 0
		for f, data := range fa {
			if bytes.Equal(data, fc[f]) {
				same++
			}
		}
		if same == len(fa) {
			t.Errorf("%s: seeds 7 and 8 wrote identical files", name)
		}
	}
}

// hpc-long must keep its declared shape: every one of its 24 functions is a
// dimension and over half the matrix is non-zero, so the sweep takes the
// dense-kernel fallback.
func TestHPCLongIsDense(t *testing.T) {
	w, _ := lookupWorkload("hpc-long")
	c := generate(w.scaled(50).corpus, 1)
	profiles, err := interval.DifferenceP(c.Dumps, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := interval.FeaturesCSR(profiles, phaseOptions(w).Features)
	if m.Dims() != 24 || c.Dims != 24 {
		t.Errorf("matrix has %d dims, corpus %d; want 24", m.Dims(), c.Dims)
	}
	if density := float64(m.Sparse.NNZ()) / float64(m.NumRows()*m.Dims()); density <= 0.5 {
		t.Errorf("density %.2f, want over half", density)
	}
	if len(c.Truth) != len(c.Dumps) {
		t.Errorf("%d truth labels for %d dumps", len(c.Truth), len(c.Dumps))
	}
}
