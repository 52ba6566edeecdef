// format.go is the frontend registry: every supported on-disk profile
// encoding registers a Format (from its package's init), and the dump
// readers — batch load, live tail, the phasedetect CLI — drive decoding
// purely through it. Adding a profiler format to the system means
// implementing Decode for it and calling Register; nothing downstream
// changes.
package profile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNoDumps is wrapped by DetectDir when a directory holds no file named
// under any registered format's scheme — distinguishable (errors.Is) from
// the mixed-format error, so a tailer can keep waiting for the first dump
// but fail fast on a genuinely mixed directory.
var ErrNoDumps = errors.New("no recognizable profile dumps")

// Format describes one on-disk profile encoding a frontend contributes.
type Format struct {
	// Name is the short format name ("gmon", "pprof", "perf").
	Name string
	// FilePrefix is the dump file naming scheme: one dump per interval,
	// named FilePrefix + strconv.Itoa(seq) (e.g. "gmon.out.7").
	FilePrefix string
	// Detect reports whether data (a file's leading bytes) looks like
	// this format — the magic-byte sniff behind -format auto and the
	// mixed-directory diagnostics.
	Detect func(data []byte) bool
	// Decode reads one cumulative dump. Decoders whose container carries
	// no sequence number return Seq = SeqUnassigned and let the caller
	// assign it from context (the file name). The dump readers pass a
	// *Dump, so a decoder whose dumps need a file written beside them can
	// type-assert r to *Dump and read it with Companion.
	Decode func(r io.Reader) (*Sample, error)
	// Encode writes one dump in this format, for stores and fixtures.
	// Lossy formats drop what they cannot represent (a perf stream has no
	// exact self time or call counts); decoding back yields the honest
	// degraded sample, never an error.
	Encode func(w io.Writer, s *Sample) error
	// RenderOf names the format this one is a rendering of, written
	// beside that format's dumps (gprof text beside gmon dumps). DetectDir
	// ignores a rendering when the format it renders is present.
	RenderOf string
}

// Dump is the reader the dump readers hand Format.Decode: one dump file's
// bytes, plus the companion files its frontend writes beside it.
type Dump struct {
	bytes.Reader
	data []byte
	dir  string
	seq  int
}

// NewDump returns the reader of dump seq under dir, whose bytes are data.
func NewDump(data []byte, dir string, seq int) *Dump {
	d := &Dump{data: data, dir: dir, seq: seq}
	d.Reset(data)
	return d
}

// Bytes returns the dump's unread bytes, without copying or consuming them.
func (d *Dump) Bytes() []byte {
	return d.data[d.Size()-int64(d.Len()):]
}

// Companion reads the file prefix+N beside the dump, N being the dump's
// sequence number (symbols.out.7 beside gmon.out.7).
func (d *Dump) Companion(prefix string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.dir, prefix+strconv.Itoa(d.seq)))
}

var (
	formatMu  sync.RWMutex
	formats   = map[string]*Format{}
	byPrefix  = map[string]*Format{}
	nameOrder []string
)

// Register adds a format to the registry. It panics on a duplicate name or
// file prefix and is meant to be called from frontend init functions.
func Register(f *Format) {
	if f.Name == "" || f.FilePrefix == "" || f.Decode == nil {
		panic("profile: Register needs Name, FilePrefix, and Decode")
	}
	formatMu.Lock()
	defer formatMu.Unlock()
	if _, dup := formats[f.Name]; dup {
		panic(fmt.Sprintf("profile: duplicate format %q", f.Name))
	}
	if _, dup := byPrefix[f.FilePrefix]; dup {
		panic(fmt.Sprintf("profile: duplicate file prefix %q", f.FilePrefix))
	}
	formats[f.Name] = f
	byPrefix[f.FilePrefix] = f
	nameOrder = append(nameOrder, f.Name)
	sort.Strings(nameOrder)
}

// Lookup returns the named format.
func Lookup(name string) (*Format, bool) {
	formatMu.RLock()
	defer formatMu.RUnlock()
	f, ok := formats[name]
	return f, ok
}

// Formats returns the registered formats sorted by name.
func Formats() []*Format {
	formatMu.RLock()
	defer formatMu.RUnlock()
	out := make([]*Format, 0, len(nameOrder))
	for _, n := range nameOrder {
		out = append(out, formats[n])
	}
	return out
}

// Names returns the registered format names in sorted order.
func Names() []string {
	formatMu.RLock()
	defer formatMu.RUnlock()
	return append([]string(nil), nameOrder...)
}

// Sniff returns the first registered format (in name order) whose Detect
// accepts the given leading bytes, or nil.
func Sniff(data []byte) *Format {
	for _, f := range Formats() {
		if f.Detect != nil && f.Detect(data) {
			return f
		}
	}
	return nil
}

// SeqFromName parses the sequence number out of a dump file name under the
// format's naming scheme, reporting whether the name belongs to the format
// at all. Only the spelling FileName writes belongs — decimal digits, no
// sign, no leading zero, a value that fits in int: alpha.out.07 or
// alpha.out.+7 would alias dump 7, so such a name is foreign, like any
// other file. It allocates nothing; a tail calls it for every entry of
// every poll.
func (f *Format) SeqFromName(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, f.FilePrefix)
	if !ok || rest == "" || (rest[0] == '0' && len(rest) > 1) {
		return 0, false
	}
	seq := 0
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int(c - '0')
		if seq > (math.MaxInt-d)/10 {
			return 0, false
		}
		seq = seq*10 + d
	}
	return seq, true
}

// FileName returns the dump file name for the given sequence number.
func (f *Format) FileName(seq int) string {
	return f.FilePrefix + strconv.Itoa(seq)
}

// DetectDir inspects the file names under dir and returns the single
// registered format whose dumps live there, not counting renderings of a
// format that is present (RenderOf). A directory holding dumps of more
// than one format is an error naming each family and its file count —
// the operator picked the wrong directory or merged two runs, and silently
// analyzing one family would misreport the run. A directory with no
// recognizable dumps is likewise an error listing the known schemes.
func DetectDir(dir string) (*Format, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		for _, f := range Formats() {
			if _, ok := f.SeqFromName(e.Name()); ok {
				counts[f.Name]++
				break
			}
		}
	}
	for name := range counts {
		if f, _ := Lookup(name); counts[f.RenderOf] > 0 {
			delete(counts, name)
		}
	}
	switch len(counts) {
	case 0:
		return nil, fmt.Errorf("profile: %w in %s (known schemes: %s)",
			ErrNoDumps, dir, strings.Join(prefixList(), ", "))
	case 1:
		for name := range counts {
			f, _ := Lookup(name)
			return f, nil
		}
	}
	parts := make([]string, 0, len(counts))
	for name := range counts {
		parts = append(parts, name)
	}
	sort.Strings(parts)
	for i, name := range parts {
		parts[i] = fmt.Sprintf("%s (%d files)", name, counts[name])
	}
	return nil, fmt.Errorf("profile: %s holds dumps of multiple formats: %s; pass -format to pick one",
		dir, strings.Join(parts, ", "))
}

func prefixList() []string {
	out := make([]string, 0)
	for _, f := range Formats() {
		out = append(out, f.FilePrefix+"N")
	}
	return out
}
