//go:build !race

package dp

const raceEnabled = false
