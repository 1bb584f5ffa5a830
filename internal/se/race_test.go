//go:build race

package se

// raceEnabled reports that the race detector is on. Its
// instrumentation allocates and burns CPU, so the allocation and CPU
// gates skip under it.
const raceEnabled = true
