//go:build !race

package pprof

// raceEnabled reports whether the race detector is compiled in; its shadow
// state allocates, so allocation-count assertions are skipped under -race.
const raceEnabled = false
