package cluster

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is the circuit-breaker position for one peer.
type BreakerState int

// Breaker states, the classic three-position machine.
const (
	// BreakerClosed: traffic flows; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: traffic is refused locally (fail fast) until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; exactly one probe request is
	// let through. Its success closes the breaker, its failure reopens it
	// for another cooldown.
	BreakerHalfOpen
)

// String implements fmt.Stringer for logs and stats.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is a per-peer circuit breaker. It layers under the retry client:
// retries smooth transient blips, while the breaker stops a node from
// burning its compute deadline re-dialing a peer that has been failing
// hard — the caller fails over to its fallback immediately instead.
// Timestamps are supplied by the caller (deterministic under test).
type Breaker struct {
	failThreshold int
	cooldown      time.Duration

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probing     bool  // a half-open probe is in flight
	opens       int64 // closed/half-open → open transitions
}

// NewBreaker opens after failThreshold consecutive failures and allows a
// half-open probe after cooldown. Both must be positive.
func NewBreaker(failThreshold int, cooldown time.Duration) (*Breaker, error) {
	if failThreshold <= 0 || cooldown <= 0 {
		return nil, fmt.Errorf("cluster: breaker needs positive threshold (%d) and cooldown (%v)",
			failThreshold, cooldown)
	}
	return &Breaker{failThreshold: failThreshold, cooldown: cooldown}, nil
}

// Allow reports whether a request may be sent at now. In the open state it
// returns false until the cooldown elapses, then transitions to half-open
// and admits exactly one probe until that probe reports back.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success records a successful exchange, closing the breaker.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.consecFails = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a failed exchange at now: it reopens a half-open
// breaker immediately and opens a closed one at the failure threshold.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.open(now)
	case BreakerClosed:
		b.consecFails++
		if b.consecFails >= b.failThreshold {
			b.open(now)
		}
	case BreakerOpen:
		// Late failure from a request admitted before the trip: the clock
		// does not restart, or a single slow peer could hold it open forever.
	}
}

// Abandon records that an admitted exchange ended without a verdict: the
// caller cancelled it (a lost hedge, an expired request deadline), so it
// says nothing about the peer. A half-open probe slot is released for the
// next Allow; the state and the failure count are left as they were.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// open transitions to open. Callers hold b.mu.
func (b *Breaker) open(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.consecFails = 0
	b.probing = false
	b.opens++
}

// State reports the breaker position at now (open flips to half-open once
// the cooldown has elapsed, matching what Allow would do).
func (b *Breaker) State(now time.Time) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= b.cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Opens counts transitions into the open state since construction.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
