package incprof

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

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

// Put implements Store.
func (g *GmonOutStore) Put(s *profile.Sample) error {
	layout := gmon.LayoutForSample(s)
	sf, err := os.Create(filepath.Join(g.dir, gmon.SymbolsPrefix+strconv.Itoa(s.Seq)))
	if err != nil {
		return err
	}
	if err := gmon.WriteSymbols(sf, s, layout); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(g.dir, "gmon.out."+strconv.Itoa(s.Seq)))
	if err != nil {
		return err
	}
	if err := gmon.WriteGmonOut(f, s, layout); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Snapshots implements Store: the "gmon" format decodes real-format dumps
// against their sidecar symbol tables.
func (g *GmonOutStore) Snapshots() ([]*profile.Sample, error) {
	return readAll(g.dir, nil)
}
