package cluster

import (
	"fmt"
	"sync"
	"time"

	"evvo/internal/stable"
)

// State grades a peer's health as seen by the local failure detector.
type State int

// Peer health states. The state machine is monotone between heartbeats —
// alive → suspect → dead as silence lengthens — and any successful
// heartbeat resets a peer straight to alive, including from dead: a
// partitioned peer that comes back is readmitted without ceremony.
const (
	// StateAlive: heard from within SuspectAfter.
	StateAlive State = iota
	// StateSuspect: silent past SuspectAfter but not yet DeadAfter. A
	// suspect peer keeps its ring ownership (reassigning on first silence
	// would flap under transient load), but callers should expect failures
	// and lean on hedged fetches and fallbacks.
	StateSuspect
	// StateDead: silent past DeadAfter. Ownership of the peer's keys moves
	// to ring successors until it is heard from again.
	StateDead
)

// String implements fmt.Stringer for logs and stats.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Detector is a timeout-based failure detector fed by heartbeat outcomes.
// Observe records a successful heartbeat to a peer; State grades the peer
// by how long it has been silent. All timestamps are supplied by the
// caller, which keeps the state machine deterministic under test and free
// of hidden clock reads.
type Detector struct {
	suspectAfter time.Duration
	deadAfter    time.Duration

	mu     sync.Mutex
	lastOK map[string]time.Time
}

// NewDetector builds a detector over the given peers. Every peer starts
// with an implicit successful heartbeat at start — a boot grace period —
// so a peer that never answers goes suspect after suspectAfter and dead
// after deadAfter, measured from boot. Requires 0 < suspectAfter <
// deadAfter.
func NewDetector(peers []string, suspectAfter, deadAfter time.Duration, start time.Time) (*Detector, error) {
	if suspectAfter <= 0 || deadAfter <= suspectAfter {
		return nil, fmt.Errorf("cluster: detector timeouts must satisfy 0 < suspect (%v) < dead (%v)",
			suspectAfter, deadAfter)
	}
	d := &Detector{
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		lastOK:       make(map[string]time.Time, len(peers)),
	}
	for _, p := range peers {
		d.lastOK[p] = start
	}
	return d, nil
}

// Observe records a successful heartbeat from peer at now. Unknown peers
// are ignored — membership is fixed at boot.
func (d *Detector) Observe(peer string, now time.Time) {
	d.mu.Lock()
	if last, ok := d.lastOK[peer]; ok && now.After(last) {
		d.lastOK[peer] = now
	}
	d.mu.Unlock()
}

// State grades peer at now. Unknown peers are reported dead: they are not
// members, so nothing should be routed to them.
func (d *Detector) State(peer string, now time.Time) State {
	d.mu.Lock()
	last, ok := d.lastOK[peer]
	d.mu.Unlock()
	if !ok {
		return StateDead
	}
	silent := now.Sub(last)
	switch {
	case silent >= d.deadAfter:
		return StateDead
	case silent >= d.suspectAfter:
		return StateSuspect
	default:
		return StateAlive
	}
}

// Counts tallies peers by state at now.
func (d *Detector) Counts(now time.Time) (alive, suspect, dead int) {
	d.mu.Lock()
	peers := stable.SortedKeys(d.lastOK)
	d.mu.Unlock()
	for _, p := range peers {
		switch d.State(p, now) {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead:
			dead++
		}
	}
	return alive, suspect, dead
}
