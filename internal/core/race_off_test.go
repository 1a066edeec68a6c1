//go:build !race

package core

// raceEnabled reports whether the test binary was built with -race.
// Allocation-count guards are skipped under -race: the detector's
// instrumentation allocates on paths that are allocation-free in normal
// builds.
const raceEnabled = false
