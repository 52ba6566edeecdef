package profile_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	_ "github.com/incprof/incprof/internal/gmon"  // gmon, and its gprof rendering
	_ "github.com/incprof/incprof/internal/pprof" // a second family
	"github.com/incprof/incprof/internal/profile"
)

// A gprof.txt.N flat profile renders the gmon dump beside it, so a
// directory holding both is a gmon directory; gprof text alone is a gprof
// directory; gmon beside pprof is still two runs merged, and refused.
func TestDetectDirIgnoresRenderings(t *testing.T) {
	for _, tc := range []struct {
		files []string
		want  string // the format, or a fragment of the error
	}{
		{[]string{"gmon.out.0", "gmon.out.1", "gprof.txt.0", "gprof.txt.1"}, "gmon"},
		{[]string{"gmon.out.0", "gprof.txt.0", "gprof.txt.1", "symbols.out.0"}, "gmon"},
		{[]string{"gprof.txt.0", "gprof.txt.1"}, "gprof"},
		{[]string{"gmon.out.0", "pprof.out.0"}, "gmon (1 files), pprof (1 files)"},
		{[]string{"gprof.txt.0", "pprof.out.0"}, "gprof (1 files), pprof (1 files)"},
		{[]string{"gmon.out.0", "gprof.txt.0", "pprof.out.0"}, "gmon (1 files), pprof (1 files)"},
	} {
		t.Run(strings.Join(tc.files, ","), func(t *testing.T) {
			dir := t.TempDir()
			for _, name := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			f, err := profile.DetectDir(dir)
			if strings.Contains(tc.want, "files") {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("DetectDir = %v, %v; want an error naming %q", f, err, tc.want)
				}
			} else if err != nil || f.Name != tc.want {
				t.Fatalf("DetectDir = %v, %v; want %s", f, err, tc.want)
			}
		})
	}
}
