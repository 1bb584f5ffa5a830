//go:build race

package replication

// raceEnabled reports that the race detector is on. It makes sync.Pool
// drop items at random, so allocation gates that count on a pooled
// object coming back skip under it.
const raceEnabled = true
