// fsck.go inspects a state directory without touching it: every snapshot
// file is validated (magic, version, checksum, config decode, the segment
// prefix it names), the profile segment is decoded, and every WAL is
// replayed read-only, so an operator can answer "what would recovery do
// here?" before resuming — or diagnose why a resume refused.
package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// SnapInfo describes one snapshot file as fsck saw it.
type SnapInfo struct {
	// File is the base name of the snapshot file.
	File string
	// Generation is the accepted count parsed from the name.
	Generation int
	// Valid reports whether the file passed every check; Err holds the
	// failure otherwise.
	Valid bool
	Err   string
	// Bytes is the file size on disk.
	Bytes int64
	// The remaining fields are copied from a valid snapshot.
	Accepted int
	LastSeq  int
	Seen     int
	Meta     Meta
	Config   Config
}

// WALInfo describes one WAL file as fsck saw it.
type WALInfo struct {
	// File is the base name of the WAL file.
	File string
	// Generation is the accepted count parsed from the name.
	Generation int
	// Records counts valid records; Shed counts the shed markers among
	// them.
	Records int
	Shed    int
	// FirstSeq and LastSeq bound the accepted dump Seqs in the log, -1
	// when it holds none.
	FirstSeq int
	LastSeq  int
	// Torn reports an invalid tail; ValidBytes is where replay stopped
	// and Bytes the raw file size.
	Torn       bool
	ValidBytes int64
	Bytes      int64
	Err        string
}

// SegInfo describes the profile segment as fsck saw it.
type SegInfo struct {
	// File is the base name of the segment file.
	File string
	// Profiles counts the valid records; ValidBytes is where they end and
	// Bytes the raw file size.
	Profiles   int
	ValidBytes int64
	Bytes      int64
	// Err describes the first invalid byte, empty when the whole file
	// decodes. Bytes past what the newest generation names are harmless:
	// the next save truncates them.
	Err string
}

// FsckReport is the full read-only inspection of a state directory.
type FsckReport struct {
	Dir      string
	Snaps    []SnapInfo
	Segments []SegInfo
	WALs     []WALInfo
	// RecoverGeneration is the generation recovery would resume from, -1
	// for a fresh start (no valid snapshot) or a refusal.
	RecoverGeneration int
	// RecoverRecords is how many WAL records that recovery would replay.
	RecoverRecords int
	// Refusal is why recovery would refuse to resume (a snapshot of
	// another format version, or a WAL chain that starts mid-stream),
	// empty when it would proceed.
	Refusal string
	// Healthy is true when recovery would proceed, the newest snapshot is
	// valid, and its WAL is not torn — the state recovery would use is
	// fully intact.
	Healthy bool
}

// Fsck inspects dir read-only and reports what recovery would find.
func Fsck(dir string) (*FsckReport, error) {
	rep := &FsckReport{Dir: dir, RecoverGeneration: -1}
	gens, err := listGenerations(dir)
	if err != nil {
		return nil, err
	}
	for _, g := range gens {
		path := snapPath(dir, g)
		info := SnapInfo{File: filepath.Base(path), Generation: g, Bytes: fileSize(path)}
		snap, _, _, err := loadGeneration(dir, g)
		if err != nil {
			info.Err = err.Error()
		} else {
			info.Valid = true
			info.Accepted = snap.Accepted
			info.LastSeq = snap.LastSeq
			info.Seen = len(snap.SeenSeqs)
			info.Meta = snap.Meta
			info.Config = snap.Config
		}
		rep.Snaps = append(rep.Snaps, info)
	}

	if data, err := os.ReadFile(segPath(dir)); err == nil || !os.IsNotExist(err) {
		info := SegInfo{File: segFile, Bytes: int64(len(data))}
		if err != nil {
			info.Err = err.Error()
		} else {
			rows, _, valid, err := decodeSegment(segFile, data)
			info.Profiles, info.ValidBytes = len(rows), int64(valid)
			if err != nil {
				info.Err = err.Error()
			}
		}
		rep.Segments = append(rep.Segments, info)
	}

	walGens := listWALs(dir)
	for _, g := range walGens {
		path := walPath(dir, g)
		info := WALInfo{File: filepath.Base(path), Generation: g, FirstSeq: -1, LastSeq: -1, Bytes: fileSize(path)}
		recs, validLen, torn, err := replayWAL(path)
		if err != nil {
			info.Err = err.Error()
		}
		info.Records = len(recs)
		info.Torn = torn
		info.ValidBytes = validLen
		for _, r := range recs {
			if r.Snap == nil {
				info.Shed++
				continue
			}
			if info.FirstSeq == -1 {
				info.FirstSeq = r.Snap.Seq
			}
			info.LastSeq = r.Snap.Seq
		}
		rep.WALs = append(rep.WALs, info)
	}

	c, err := choose(dir, nil)
	if err != nil {
		rep.Refusal = err.Error()
		return rep, nil
	}
	recoverGen := c.gen()
	if c.snap != nil {
		rep.RecoverGeneration = recoverGen
	}
	// Recovery replays the WAL chain from the chosen generation forward,
	// stopping at the first torn log (walGens is ascending).
	for _, w := range rep.WALs {
		if w.Generation < recoverGen {
			continue
		}
		rep.RecoverRecords += w.Records
		if w.Torn || w.Err != "" {
			break
		}
	}

	rep.Healthy = true
	if n := len(rep.Snaps); n > 0 && !rep.Snaps[n-1].Valid {
		rep.Healthy = false
	}
	for _, w := range rep.WALs {
		if w.Generation >= recoverGen && (w.Torn || w.Err != "") {
			rep.Healthy = false
		}
	}
	return rep, nil
}

// listWALs returns the WAL generations present in dir, sorted ascending. A
// directory can hold a WAL with no matching snapshot (generation 0 before
// the first save), so this is a separate scan from listGenerations.
func listWALs(dir string) []int {
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	var gens []int
	for _, m := range matches {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(m), "wal-%d.log", &n); err == nil {
			gens = append(gens, n)
		}
	}
	sort.Ints(gens)
	return gens
}

func fileSize(path string) int64 {
	if info, err := os.Stat(path); err == nil {
		return info.Size()
	}
	return 0
}
