//go:build !linux

package incprof

// openWatch has no change feed to offer off Linux: the tail lists the
// directory on every poll.
var openWatch = func(dir string, seqOf func(name string) (int, bool)) dirEvents { return nil }
