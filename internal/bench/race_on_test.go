//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation allocates on paths that are allocation-free in
// normal builds, so allocation counts are not compared under it.
const raceEnabled = true
