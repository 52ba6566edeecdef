package profile

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/big"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The profile package itself registers nothing: frontends do. Tests get two
// synthetic formats so the registry logic is exercised without importing any
// real frontend (which would create an import cycle for this package).
func init() {
	for _, name := range []string{"alpha", "beta"} {
		magic := []byte(name + "!")
		Register(&Format{
			Name:       name,
			FilePrefix: name + ".out.",
			Detect: func(data []byte) bool {
				return bytes.HasPrefix(data, magic)
			},
			Decode: func(r io.Reader) (*Sample, error) {
				head := make([]byte, len(magic))
				if _, err := io.ReadFull(r, head); err != nil || !bytes.Equal(head, magic) {
					return nil, errors.New("bad test-format magic")
				}
				return &Sample{Seq: SeqUnassigned, SamplePeriod: 1}, nil
			},
			Encode: func(w io.Writer, s *Sample) error {
				_, err := w.Write(magic)
				return err
			},
		})
	}
}

func TestRegistryLookup(t *testing.T) {
	f, ok := Lookup("alpha")
	if !ok || f.FilePrefix != "alpha.out." {
		t.Fatalf("Lookup(alpha) = %+v, %v", f, ok)
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Fatal("found an unregistered format")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	for _, f := range []*Format{
		{Name: "alpha", FilePrefix: "other.", Decode: func(io.Reader) (*Sample, error) { return nil, nil }},
		{Name: "other", FilePrefix: "alpha.out.", Decode: func(io.Reader) (*Sample, error) { return nil, nil }},
		{Name: "", FilePrefix: "x.", Decode: func(io.Reader) (*Sample, error) { return nil, nil }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Register(%+v) did not panic", f)
				}
			}()
			Register(f)
		}()
	}
}

// SeqFromName accepts exactly the spelling FileName writes: decimal digits
// after the prefix, no sign, no leading zero, a value that fits in int.
func TestSeqFromName(t *testing.T) {
	f, _ := Lookup("alpha")
	maxInt := strconv.Itoa(math.MaxInt)
	onePast := new(big.Int).Add(big.NewInt(math.MaxInt), big.NewInt(1)).String()
	cases := []struct {
		name string
		seq  int
		ok   bool
	}{
		{"alpha.out.0", 0, true},
		{"alpha.out.7", 7, true},
		{"alpha.out.12", 12, true},
		{"alpha.out.1234", 1234, true},
		{"alpha.out." + maxInt, math.MaxInt, true},
		{"alpha.out." + onePast, 0, false},
		{"alpha.out.", 0, false},
		{"alpha.out.x", 0, false},
		{"alpha.out.1a", 0, false},
		{"alpha.out. 1", 0, false},
		{"alpha.out.-1", 0, false},
		{"alpha.out.00", 0, false},
		{"alpha.out.07", 0, false},
		{"alpha.out.+7", 0, false},
		{"alpha.out", 0, false},
		{"beta.out.3", 0, false},
		{"README", 0, false},
	}
	for _, c := range cases {
		seq, ok := f.SeqFromName(c.name)
		if ok != c.ok || seq != c.seq {
			t.Errorf("SeqFromName(%q) = %d, %v; want %d, %v", c.name, seq, ok, c.seq, c.ok)
		}
	}
	if got := f.FileName(7); got != "alpha.out.7" {
		t.Fatalf("FileName(7) = %q", got)
	}
}

func TestSniff(t *testing.T) {
	if f := Sniff([]byte("beta!data")); f == nil || f.Name != "beta" {
		t.Fatalf("Sniff(beta magic) = %v", f)
	}
	if f := Sniff([]byte("unknown bytes")); f != nil {
		t.Fatalf("Sniff(garbage) = %v", f)
	}
}

func touch(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDetectDirSingleFormat(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "alpha.out.0")
	touch(t, dir, "alpha.out.1")
	touch(t, dir, "README") // junk is ignored
	f, err := DetectDir(dir)
	if err != nil || f.Name != "alpha" {
		t.Fatalf("DetectDir = %v, %v", f, err)
	}
}

func TestDetectDirEmpty(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "notes.txt")
	_, err := DetectDir(dir)
	if err == nil || !errors.Is(err, ErrNoDumps) {
		t.Fatalf("DetectDir(empty) = %v, want ErrNoDumps", err)
	}
}

func TestDetectDirMixed(t *testing.T) {
	dir := t.TempDir()
	touch(t, dir, "alpha.out.0")
	touch(t, dir, "beta.out.0")
	touch(t, dir, "beta.out.1")
	_, err := DetectDir(dir)
	if err == nil || errors.Is(err, ErrNoDumps) {
		t.Fatalf("DetectDir(mixed) = %v, want mixed-format error", err)
	}
	for _, want := range []string{"alpha (1 files)", "beta (2 files)", "-format"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("mixed error %q missing %q", err, want)
		}
	}
}
