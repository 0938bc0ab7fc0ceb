//go:build race

package dns53_test

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of what is put into it, so allocation counts of pooled paths
// are not what they are in production.
const raceEnabled = true
