package cloud

import (
	"context"
	"fmt"
	"sync"
)

// flight coalesces concurrent calls for one key: the first arrival (the
// leader) runs the work, later arrivals wait for it and share the result.
// A leader that dies of its *own* context's cancellation publishes that
// context error; followers with live contexts do not inherit it — they
// loop back and elect a new leader (possibly themselves), so one impatient
// client cannot fail a coalesced herd. A real error from a healthy leader
// is shared.
//
// hit and publish connect the flight to the store its results land in
// (the response cache, the segment-table map). Both run under mu, the
// store's own lock, so an arrival sees either the leader's call or its
// published result — never a gap in which it would run the work twice.
type flight[K comparable, V any] struct {
	mu      *sync.Mutex
	calls   map[K]*flightCall[V]
	hit     func(K) (V, bool)
	publish func(K, V)
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do returns hit's value for key if there is one, else the in-flight
// leader's result, else run's as the new leader; on success the leader
// publishes before its followers wake. The bool reports that this call ran
// the work itself. A follower never waits past its own ctx.
func (f *flight[K, V]) do(ctx context.Context, key K, run func() (V, error)) (V, bool, error) {
	var zero V
	for {
		f.mu.Lock()
		if v, ok := f.hit(key); ok {
			f.mu.Unlock()
			return v, false, nil
		}
		if c, ok := f.calls[key]; ok {
			f.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return zero, false, fmt.Errorf("abandoned while coalesced: %w", ctx.Err())
			}
			if c.err != nil {
				if isCtxErr(c.err) && ctx.Err() == nil {
					// The leader died of its own cancellation, not ours:
					// its deadline was tighter, or its client hung up.
					continue
				}
				return zero, false, c.err
			}
			return c.val, false, nil
		}
		if f.calls == nil {
			f.calls = make(map[K]*flightCall[V])
		}
		c := &flightCall[V]{done: make(chan struct{})}
		f.calls[key] = c
		f.mu.Unlock()

		c.val, c.err = run()
		f.mu.Lock()
		delete(f.calls, key)
		if c.err == nil {
			f.publish(key, c.val)
		}
		f.mu.Unlock()
		close(c.done)
		return c.val, true, c.err
	}
}
