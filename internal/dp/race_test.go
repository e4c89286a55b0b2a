//go:build race

package dp

// raceEnabled reports a -race build: the race detector makes sync.Pool drop
// recycled items at random, so warm-pool allocation budgets do not hold.
const raceEnabled = true
