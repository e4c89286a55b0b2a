package cluster

import (
	"fmt"
	"testing"
	"time"
)

func TestRingValidation(t *testing.T) {
	if _, err := Build(nil, 64); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := Build([]string{"a", ""}, 64); err == nil {
		t.Fatal("empty member ID accepted")
	}
	if _, err := Build([]string{"a", "a"}, 64); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// TestRingDeterministicAcrossInputOrder: every node must compute the same
// ring from its own view of the membership, or ownership would disagree.
func TestRingDeterministicAcrossInputOrder(t *testing.T) {
	a, err := Build([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build([]string{"n3", "n1", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("route-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %q: owner %q vs %q depending on input order", key, a.Owner(key), b.Owner(key))
		}
	}
}

// TestRingSuccessorsDistinctAndOwnerFirst: the successor list is the
// replica placement, so it must start at the owner and never repeat nodes.
func TestRingSuccessorsDistinctAndOwnerFirst(t *testing.T) {
	r, err := Build([]string{"n1", "n2", "n3", "n4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("route-%d", i)
		succ := r.Successors(key, 4)
		if len(succ) != 4 {
			t.Fatalf("key %q: %d successors, want 4", key, len(succ))
		}
		if succ[0] != r.Owner(key) {
			t.Fatalf("key %q: successors start at %q, owner is %q", key, succ[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("key %q: duplicate successor %q in %v", key, s, succ)
			}
			seen[s] = true
		}
	}
	if got := r.Successors("k", 10); len(got) != 4 {
		t.Fatalf("successor request beyond membership returned %d, want 4", len(got))
	}
	if got := r.Successors("k", 0); got != nil {
		t.Fatalf("zero successors = %v, want nil", got)
	}
}

// TestRingBalance: virtual nodes must spread ownership roughly evenly —
// with 64 vnodes no member of a 4-node ring should own more than half the
// keyspace or the "shard" would be a hotspot.
func TestRingBalance(t *testing.T) {
	r, err := Build([]string{"n1", "n2", "n3", "n4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for node, n := range counts {
		if share := float64(n) / keys; share < 0.05 || share > 0.50 {
			t.Fatalf("node %q owns %.0f%% of keys; ring badly unbalanced: %v", node, share*100, counts)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 members own keys: %v", len(counts), counts)
	}
}

// TestRingConsistency: removing one member must move only that member's
// keys — everything else keeps its owner, so peer caches stay warm.
func TestRingConsistency(t *testing.T) {
	full, err := Build([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := Build([]string{"n1", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before != "n3" && after != before {
			t.Fatalf("key %q moved %q → %q although its owner survived", key, before, after)
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	now := time.Unix(0, 0)
	if _, err := NewDetector([]string{"p"}, 0, time.Second, now); err == nil {
		t.Fatal("zero suspectAfter accepted")
	}
	if _, err := NewDetector([]string{"p"}, time.Second, time.Second, now); err == nil {
		t.Fatal("dead <= suspect accepted")
	}
}

// TestDetectorStateMachine walks alive → suspect → dead → (heartbeat) →
// alive on a synthetic clock.
func TestDetectorStateMachine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	d, err := NewDetector([]string{"p1", "p2"}, 100*time.Millisecond, 300*time.Millisecond, t0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.State("p1", t0.Add(50*time.Millisecond)); got != StateAlive {
		t.Fatalf("inside grace period: %v, want alive", got)
	}
	if got := d.State("p1", t0.Add(150*time.Millisecond)); got != StateSuspect {
		t.Fatalf("past suspectAfter: %v, want suspect", got)
	}
	if got := d.State("p1", t0.Add(400*time.Millisecond)); got != StateDead {
		t.Fatalf("past deadAfter: %v, want dead", got)
	}
	// A heartbeat resurrects the peer from dead.
	d.Observe("p1", t0.Add(500*time.Millisecond))
	if got := d.State("p1", t0.Add(550*time.Millisecond)); got != StateAlive {
		t.Fatalf("after heartbeat: %v, want alive", got)
	}
	// Stale observations (clock going backwards across goroutines) never
	// regress the last-heard time.
	d.Observe("p1", t0)
	if got := d.State("p1", t0.Add(550*time.Millisecond)); got != StateAlive {
		t.Fatalf("stale observe regressed the peer to %v", got)
	}
	if got := d.State("unknown", t0); got != StateDead {
		t.Fatalf("unknown peer graded %v, want dead", got)
	}
	alive, suspect, dead := d.Counts(t0.Add(550 * time.Millisecond))
	if alive != 1 || suspect != 0 || dead != 1 {
		t.Fatalf("counts = %d/%d/%d, want 1 alive (p1), 1 dead (p2 silent since boot)", alive, suspect, dead)
	}
}

// TestStateStrings pins the stats-facing labels.
func TestStateStrings(t *testing.T) {
	if StateAlive.String() != "alive" || StateSuspect.String() != "suspect" || StateDead.String() != "dead" {
		t.Fatal("detector state labels changed")
	}
}
