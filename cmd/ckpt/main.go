// Command ckpt validates and inspects a phasedetect checkpoint directory:
// every snapshot file's magic, version, checksum and the profile-segment
// prefix it names, the segment's records, every WAL's record chain and tail
// integrity, and what a resume would actually do — which generation it
// loads and how many WAL records it replays, or why it would refuse. Exit
// status 0 means the state recovery would use is fully intact; 1 means
// recovery would have to fall back or truncate something (it still
// succeeds — the layer is built to — but the operator should know) or would
// refuse to resume; 2 is a usage or I/O error.
//
// Usage:
//
//	ckpt -dir run1.ckpt
//	ckpt -dir run1.ckpt -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/incprof/incprof/internal/checkpoint"
	"github.com/incprof/incprof/internal/report"
)

func main() {
	dir := flag.String("dir", "", "checkpoint directory to inspect")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	flag.Parse()
	os.Exit(run(*dir, *asJSON, os.Stdout, os.Stderr))
}

// run is the whole command, parameterized for tests: it returns the exit
// code instead of calling os.Exit.
func run(dir string, asJSON bool, stdout, stderr io.Writer) int {
	if dir == "" {
		fmt.Fprintln(stderr, "ckpt: -dir is required")
		return 2
	}
	rep, err := checkpoint.Fsck(dir)
	if err != nil {
		fmt.Fprintln(stderr, "ckpt:", err)
		return 2
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "ckpt:", err)
			return 2
		}
	} else if err := render(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "ckpt:", err)
		return 2
	}
	if !rep.Healthy {
		return 1
	}
	return 0
}

func render(w io.Writer, rep *checkpoint.FsckReport) error {
	fmt.Fprintf(w, "checkpoint directory %s\n", rep.Dir)
	st := report.NewTable("Snapshots", "File", "Status", "Accepted", "Last Seq", "Intervals", "Dims", "K", "Gaps", "Bytes")
	for _, s := range rep.Snaps {
		status := "ok"
		if !s.Valid {
			status = "INVALID: " + s.Err
		}
		st.AddRow(s.File, status,
			fmt.Sprint(s.Accepted), fmt.Sprint(s.LastSeq),
			fmt.Sprint(s.Meta.Intervals), fmt.Sprint(s.Meta.Dims), fmt.Sprint(s.Meta.K),
			fmt.Sprint(s.Meta.Gaps), fmt.Sprint(s.Bytes))
	}
	if len(rep.Snaps) == 0 {
		st.AddRow("(none)", "", "", "", "", "", "", "", "")
	}
	if err := st.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	sg := report.NewTable("Segments", "File", "Profiles", "Valid Bytes", "Bytes", "Status")
	for _, seg := range rep.Segments {
		status := "ok"
		if seg.Err != "" {
			status = "INVALID: " + seg.Err
		}
		sg.AddRow(seg.File, fmt.Sprint(seg.Profiles), fmt.Sprint(seg.ValidBytes), fmt.Sprint(seg.Bytes), status)
	}
	if len(rep.Segments) == 0 {
		sg.AddRow("(none)", "", "", "", "")
	}
	if err := sg.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	wt := report.NewTable("WALs", "File", "Records", "Shed", "Seq Range", "Tail", "Bytes")
	for _, wal := range rep.WALs {
		tail := "ok"
		if wal.Torn {
			tail = fmt.Sprintf("TORN at byte %d of %d", wal.ValidBytes, wal.Bytes)
		}
		if wal.Err != "" {
			tail = "ERROR: " + wal.Err
		}
		rng := "-"
		if wal.FirstSeq >= 0 {
			rng = fmt.Sprintf("%d..%d", wal.FirstSeq, wal.LastSeq)
		}
		wt.AddRow(wal.File, fmt.Sprint(wal.Records), fmt.Sprint(wal.Shed), rng, tail, fmt.Sprint(wal.Bytes))
	}
	if len(rep.WALs) == 0 {
		wt.AddRow("(none)", "", "", "", "", "")
	}
	if err := wt.Render(w); err != nil {
		return err
	}

	fmt.Fprintln(w)
	if rep.Refusal != "" {
		fmt.Fprintf(w, "recovery: REFUSED: %s\n", rep.Refusal)
		fmt.Fprintln(w, "status: REFUSED (resume will fail until the directory is repaired or cleared)")
		return nil
	}
	if rep.RecoverGeneration < 0 {
		fmt.Fprintf(w, "recovery: fresh start, %d WAL records to replay\n", rep.RecoverRecords)
	} else {
		fmt.Fprintf(w, "recovery: resume from generation %d, %d WAL records to replay\n", rep.RecoverGeneration, rep.RecoverRecords)
	}
	if rep.Healthy {
		fmt.Fprintln(w, "status: healthy")
	} else {
		fmt.Fprintln(w, "status: DEGRADED (recovery will fall back or truncate)")
	}
	return nil
}
