package incprof

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/incprof/incprof/internal/gmon"
	"github.com/incprof/incprof/internal/profile"
)

// GmonOutStore writes dumps in the real GNU gmon.out wire format — byte-for-
// byte what the glibc gprof runtime emits and the paper's collector renames
// (gmon.out.N). Because the real format is keyed by program counter, each
// dump gets a sidecar symbols.out.N file standing in for the binary's
// symbol table (name per line, address order), plus a header carrying the
// dump's timestamp (which the real pipeline recovers from file metadata).
//
// Information that the real format cannot carry — exactly-accounted self
// time, and call counts for functions reached without a recorded arc — is
// lost on the round trip, exactly as it is lost to real gprof users.
type GmonOutStore struct {
	dir string
}

// NewGmonOutStore returns a store writing real-format dumps under dir.
func NewGmonOutStore(dir string) (*GmonOutStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("incprof: creating gmon.out store dir: %w", err)
	}
	return &GmonOutStore{dir: dir}, nil
}

// Dir returns the directory the store writes into.
func (g *GmonOutStore) Dir() string { return g.dir }

// Put implements Store.
func (g *GmonOutStore) Put(s *profile.Sample) error {
	layout := gmon.LayoutForSample(s)

	sf, err := os.Create(filepath.Join(g.dir, fmt.Sprintf("symbols.out.%d", s.Seq)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(sf)
	fmt.Fprintf(bw, "# t=%.6f seq=%d\n", s.Timestamp.Seconds(), s.Seq)
	for _, name := range layout.Names() {
		fmt.Fprintln(bw, name)
	}
	if err := bw.Flush(); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(g.dir, fmt.Sprintf("gmon.out.%d", s.Seq)))
	if err != nil {
		return err
	}
	if err := gmon.WriteGmonOut(f, s, layout); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Snapshots implements Store, decoding the real-format dumps against their
// sidecar symbol tables.
func (g *GmonOutStore) Snapshots() ([]*profile.Sample, error) {
	entries, err := os.ReadDir(g.dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := seqOf(e.Name(), "gmon.out."); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	out := make([]*profile.Sample, 0, len(seqs))
	for _, seq := range seqs {
		names, ts, err := g.readSymbols(seq)
		if err != nil {
			return nil, err
		}
		layout := gmon.NewSymbolLayout(names)
		f, err := os.Open(filepath.Join(g.dir, fmt.Sprintf("gmon.out.%d", seq)))
		if err != nil {
			return nil, err
		}
		s, err := gmon.ReadGmonOut(f, layout)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("incprof: decoding gmon.out.%d: %w", seq, err)
		}
		s.Seq = seq
		s.Timestamp = ts
		out = append(out, s)
	}
	return out, nil
}

// readSymbols loads one sidecar file: the header carries the timestamp, the
// body the symbol names in address order.
func (g *GmonOutStore) readSymbols(seq int) ([]string, time.Duration, error) {
	f, err := os.Open(filepath.Join(g.dir, fmt.Sprintf("symbols.out.%d", seq)))
	if err != nil {
		return nil, 0, fmt.Errorf("incprof: missing symbol sidecar for dump %d: %w", seq, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var names []string
	var ts time.Duration
	first := true
	for sc.Scan() {
		line := sc.Text()
		if first {
			first = false
			if !strings.HasPrefix(line, "# ") {
				return nil, 0, fmt.Errorf("incprof: symbols.out.%d missing header", seq)
			}
			for _, field := range strings.Fields(line[2:]) {
				if v, ok := strings.CutPrefix(field, "t="); ok {
					sec, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return nil, 0, fmt.Errorf("incprof: bad timestamp in symbols.out.%d", seq)
					}
					ts = time.Duration(sec * float64(time.Second))
				}
			}
			continue
		}
		if line != "" {
			names = append(names, line)
		}
	}
	return names, ts, sc.Err()
}
