// Fixture for detcheck: map-range accumulation hazards and wall-clock
// reads in a pure solver package (path ends in /dp).
package dp

import (
	"bytes"
	"math/rand"
	"sort"
	"time"
)

// keysOf flags: appending map keys into an outer slice records them in
// nondeterministic order.
func keysOf(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // want `append into "out" while ranging a map`
	}
	sort.Strings(out)
	return out
}

// sumFloats flags: float addition is order-sensitive bit-exactly.
func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into "sum" while ranging a map`
	}
	return sum
}

// serialize flags: writing entries to an ordered stream in map order.
func serialize(m map[string]int) []byte {
	var buf bytes.Buffer
	for k := range m {
		buf.WriteString(k) // want `\.WriteString inside a map range serializes entries`
	}
	return buf.Bytes()
}

// sumInts passes: integer addition commutes, the fold is order-blind
// (metrics.LabeledCounter.Total is the real-code twin).
func sumInts(m map[string]int) int {
	total := 0
	for _, n := range m {
		total += n
	}
	return total
}

// snapshot passes: a map→map copy cannot observe iteration order
// (metrics.LabeledCounter.Snapshot is the real-code twin).
func snapshot(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// perEntry passes: the accumulator is loop-local, reset every iteration.
func perEntry(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		row := make([]int, 0, len(vs))
		row = append(row, vs...)
		n += len(row)
	}
	return n
}

// sortedWalk passes: iterating a sorted key slice is the blessed shape.
func sortedWalk(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k) // want `append into "keys" while ranging a map`
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, k) // no finding: ranging a slice, not a map
	}
	return out
}

// stamp flags: dp is a pure solver package; solves must not depend on
// when they ran.
func stamp() int64 {
	return time.Now().UnixNano() // want `time\.Now\(\) in pure solver package dp`
}

// elapsed flags twice: every wall-clock read is its own finding, not
// just the first one in the function.
func elapsed() time.Duration {
	start := time.Now() // want `time\.Now\(\) in pure solver package dp`
	end := time.Now()   // want `time\.Now\(\) in pure solver package dp`
	return end.Sub(start)
}

// seededDraw passes: an explicitly seeded local source is deterministic.
func seededDraw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}
