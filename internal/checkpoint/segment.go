// segment.go is the profile segment: the intervals a run has emitted, each
// written once, in order, as it first appears in a snapshot. It encodes
// from the engine's store (interval.Row) and decodes into one. A v2
// snapshot does not carry the profiles — they are the one part of the engine
// state that grows with the run's history — but names the prefix of the
// segment (profile count and byte length) that holds them, so a save costs
// the profiles accepted since the previous save, not every profile so far.
//
// The file is an 8-byte magic and a 4-byte format version, then one record
// per interval, framed exactly as WAL records are (kind, length, CRC-32C,
// payload). A record's payload opens with the function names it introduces;
// together the records build one name table for the segment, and every map
// entry refers to a name by its index in that table. The payload then holds
// the interval's index, bounds and repair flag and three maps — sampled
// self time, exact self time, calls — each its entry count plus one, then
// its entries sorted by name index. Varints keep an interval to a few bytes
// per active function.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/incprof/incprof/internal/interval"
)

const (
	// segMagic opens the profile segment.
	segMagic = "INCPSEGM"
	// segVersion is the segment format version this package writes.
	segVersion = 1
	// segHeaderLen is the magic plus the version.
	segHeaderLen = len(segMagic) + 4
	// recProfile frames one interval profile.
	recProfile byte = 'P'
	// segFile names the state directory's profile segment.
	segFile = "profiles.seg"
)

// segIndex is the part of the segment a snapshot's state covers: its first
// Profiles records, which end Bytes into the file.
type segIndex struct {
	Profiles int
	Bytes    int64
}

// segPath names the profile segment of a state directory.
func segPath(dir string) string { return filepath.Join(dir, segFile) }

// segment appends to a state directory's profile segment. It knows the
// prefix the newest snapshot names and the name table that prefix defines;
// anything past the prefix (left by a crash between the segment append and
// the snapshot rename, or named only by generations recovery fell back past)
// is truncated by the next append.
type segment struct {
	path  string
	index segIndex
	names []string       // the name table, in index order
	ids   map[string]int // name → index in names
	buf   []byte
	fresh []string
	cells []interval.Cell
	pairs []idValue
}

type idValue struct {
	id  int
	val int64
}

// newSegment returns the appender for path whose valid prefix is index,
// holding the given name table.
func newSegment(path string, index segIndex, names []string) *segment {
	s := &segment{path: path, index: index, names: names, ids: make(map[string]int, len(names))}
	for i, n := range names {
		s.ids[n] = i
	}
	return s
}

// append writes rows[s.index.Profiles:] after the valid prefix, fsyncs
// when sync is set, and returns the bytes written. rows must extend the
// intervals already written: the engine only ever appends to its history.
func (s *segment) append(rows []interval.Row, sync bool) (int64, error) {
	if len(rows) < s.index.Profiles {
		return 0, fmt.Errorf("checkpoint: snapshot holds %d interval profiles, fewer than the %d the segment already has", len(rows), s.index.Profiles)
	}
	if len(rows) == s.index.Profiles {
		return 0, nil
	}
	base := len(s.names)
	s.buf = s.buf[:0]
	if s.index.Bytes == 0 {
		s.buf = appendSegHeader(s.buf)
	}
	for i := s.index.Profiles; i < len(rows); i++ {
		s.buf = s.appendRecord(s.buf, &rows[i], i)
	}
	if err := s.write(sync); err != nil {
		// The records never became durable: forget the names they added.
		for _, n := range s.names[base:] {
			delete(s.ids, n)
		}
		s.names = s.names[:base]
		return 0, err
	}
	s.index = segIndex{Profiles: len(rows), Bytes: s.index.Bytes + int64(len(s.buf))}
	return int64(len(s.buf)), nil
}

// appendSegHeader appends the segment file header: magic, then version.
func appendSegHeader(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(append(buf, segMagic...), segVersion)
}

// write puts s.buf at the end of the valid prefix.
func (s *segment) write(sync bool) error {
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(s.index.Bytes); err != nil {
		f.Close()
		return err
	}
	if _, err := f.WriteAt(s.buf, s.index.Bytes); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if sync && s.index.Bytes == 0 {
		// A new segment's directory entry must be as durable as the
		// snapshot that is about to name it.
		syncDir(filepath.Dir(s.path))
	}
	return nil
}

// appendRecord frames row, interval index, onto buf, extending the name
// table with the names it introduces (sorted, so the bytes do not depend on
// the store's numbering).
func (s *segment) appendRecord(buf []byte, row *interval.Row, index int) []byte {
	s.cells = row.Cells(s.cells[:0])
	s.fresh = s.fresh[:0]
	for _, c := range s.cells {
		if _, ok := s.ids[row.Name(c.ID)]; !ok {
			s.fresh = append(s.fresh, row.Name(c.ID))
		}
	}
	sort.Strings(s.fresh)
	for _, n := range s.fresh {
		s.ids[n] = len(s.names)
		s.names = append(s.names, n)
	}

	start := len(buf)
	buf = append(buf, make([]byte, walHeaderLen)...)
	buf = binary.AppendUvarint(buf, uint64(len(s.fresh)))
	for _, n := range s.fresh {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}
	buf = binary.AppendVarint(buf, int64(index))
	buf = binary.AppendVarint(buf, int64(row.Start))
	buf = binary.AppendVarint(buf, int64(row.End))
	repaired := byte(0)
	if row.Repaired {
		repaired = 1
	}
	buf = append(buf, repaired)
	buf = s.appendMap(buf, row, func(c *interval.Cell) int64 { return int64(c.Self) })
	buf = s.appendMap(buf, row, func(c *interval.Cell) int64 { return int64(c.ExactSelf) })
	buf = s.appendMap(buf, row, func(c *interval.Cell) int64 { return c.Calls })
	putFrameHeader(buf[start:start+walHeaderLen], recProfile, buf[start+walHeaderLen:])
	return buf
}

// appendMap encodes the non-zero values get reads from the row's cells
// (s.cells) as a map: its length plus one, then its entries sorted by name
// index.
func (s *segment) appendMap(buf []byte, row *interval.Row, get func(*interval.Cell) int64) []byte {
	ps := s.pairs[:0]
	for i := range s.cells {
		if v := get(&s.cells[i]); v != 0 {
			ps = append(ps, idValue{s.ids[row.Name(s.cells[i].ID)], v})
		}
	}
	slices.SortFunc(ps, func(a, b idValue) int { return a.id - b.id })
	buf = binary.AppendUvarint(buf, uint64(len(ps))+1)
	for _, e := range ps {
		buf = binary.AppendUvarint(buf, uint64(e.id))
		buf = binary.AppendVarint(buf, e.val)
	}
	s.pairs = ps
	return buf
}

// readSegment loads the prefix idx names from the segment at path: exactly
// idx.Bytes bytes, which must decode cleanly into exactly idx.Profiles
// intervals. It returns their rows and the name table the prefix defines.
// The length is checked against the file's size before anything is
// allocated for it.
func readSegment(path string, idx segIndex) ([]interval.Row, []string, error) {
	name := filepath.Base(path)
	if idx.Bytes < 0 || idx.Profiles < 0 {
		return nil, nil, corrupt(name, "negative index %+v", idx)
	}
	if idx.Bytes == 0 {
		if idx.Profiles != 0 {
			return nil, nil, corrupt(name, "the prefix names %d profiles in 0 bytes", idx.Profiles)
		}
		return nil, nil, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, corrupt(name, "missing; the prefix is %d bytes", idx.Bytes)
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if info.Size() < idx.Bytes {
		return nil, nil, corrupt(name, "torn: %d bytes, the prefix is %d", info.Size(), idx.Bytes)
	}
	data := make([]byte, idx.Bytes)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	rows, names, _, err := decodeSegment(name, data)
	if err != nil {
		return nil, nil, err
	}
	if len(rows) != idx.Profiles {
		return nil, nil, corrupt(name, "holds %d profiles in its first %d bytes, the prefix names %d", len(rows), idx.Bytes, idx.Profiles)
	}
	return rows, names, nil
}

// decodeSegment decodes segment bytes up to the first record that is torn,
// fails its checksum, or does not decode. It returns the rows (in a fresh
// interval store) and name table before that point, the byte length they
// end at, and a *corruptError describing the first bad byte (nil when data
// decodes to its end). Every
// count in the data is checked against the bytes left before anything is
// allocated for it.
func decodeSegment(name string, data []byte) (rows []interval.Row, names []string, valid int, err error) {
	if len(data) == 0 {
		return nil, nil, 0, nil
	}
	if len(data) < segHeaderLen {
		return nil, nil, 0, corrupt(name, "short header")
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, nil, 0, corrupt(name, "bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[len(segMagic):segHeaderLen]); v != segVersion {
		return nil, nil, 0, corrupt(name, "unsupported segment version %d (this build reads version %d)", v, segVersion)
	}
	store := interval.NewMatrixBuilder(interval.FeatureOptions{})
	var d decoder
	off := segHeaderLen
	for off < len(data) {
		kind, payload, next, ok := nextFrame(data, off)
		if !ok {
			return store.Rows(), names, off, corrupt(name, "torn or corrupt record at byte %d", off)
		}
		if kind != recProfile {
			return store.Rows(), names, off, corrupt(name, "unknown record kind %q at byte %d", kind, off)
		}
		d.b, d.err = payload, nil
		grown := d.record(names, store)
		if d.err != nil {
			return store.Rows(), names, off, corrupt(name, "record at byte %d: %v", off, d.err)
		}
		names = grown
		off = next
	}
	return store.Rows(), names, off, nil
}

// decoder reads one record payload; the first failure sticks in err.
// cellBuf is reused across records.
type decoder struct {
	b       []byte
	err     error
	cellBuf []interval.Cell
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a count whose items each take at least min bytes, so it
// cannot exceed what is left.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// record decodes one record into store: the names it adds to the table,
// then the interval, which must be the store's next, with map entries that
// index the grown table.
func (d *decoder) record(names []string, store *interval.MatrixBuilder) []string {
	for i, n := 0, d.count(1); i < n && d.err == nil; i++ {
		l := d.count(1)
		if d.err == nil {
			names = append(names, string(d.b[:l]))
			d.b = d.b[l:]
		}
	}
	if index := d.varint(); d.err == nil && index != int64(store.NumRows()) {
		d.fail("interval index %d, want %d", index, store.NumRows())
	}
	start, end := time.Duration(d.varint()), time.Duration(d.varint())
	var repaired bool
	if d.err == nil {
		if len(d.b) == 0 || d.b[0] > 1 {
			d.fail("bad repaired flag")
		} else {
			repaired = d.b[0] == 1
			d.b = d.b[1:]
		}
	}
	d.cellBuf = d.cells(names, d.cellBuf[:0], func(c *interval.Cell, v int64) { c.Self = time.Duration(v) })
	d.cellBuf = d.cells(names, d.cellBuf, func(c *interval.Cell, v int64) { c.ExactSelf = time.Duration(v) })
	d.cellBuf = d.cells(names, d.cellBuf, func(c *interval.Cell, v int64) { c.Calls = v })
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err == nil {
		store.AddCells(start, end, repaired, d.cellBuf, func(id int32) string { return names[id] })
	}
	return names
}

// cells reads what appendMap wrote, appending one cell per entry with its
// value put in place by set.
func (d *decoder) cells(names []string, cells []interval.Cell, set func(*interval.Cell, int64)) []interval.Cell {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return cells
	}
	n--
	if n > uint64(len(d.b)/2) {
		d.fail("map of %d entries exceeds the %d bytes left", n, len(d.b))
		return cells
	}
	for i := uint64(0); i < n; i++ {
		id := d.uvarint()
		v := d.varint()
		if d.err != nil {
			return cells
		}
		if id >= uint64(len(names)) {
			d.fail("name index %d outside a table of %d", id, len(names))
			return cells
		}
		c := interval.Cell{ID: int32(id)}
		set(&c, v)
		cells = append(cells, c)
	}
	return cells
}
