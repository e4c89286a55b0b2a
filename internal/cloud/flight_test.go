package cloud

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flightResult is one do call's outcome.
type flightResult struct {
	val   int
	fresh bool
	err   error
}

// TestFlight drives the coalescer's three follower outcomes on one key
// each: re-election after the leader's own cancellation, a follower
// abandoning on its own context, and a real leader error shared.
func TestFlight(t *testing.T) {
	var mu sync.Mutex
	store := map[string]int{}
	lookups := map[string]int{}
	f := flight[string, int]{mu: &mu,
		hit: func(k string) (int, bool) {
			lookups[k]++
			v, ok := store[k]
			return v, ok
		},
		publish: func(k string, v int) { store[k] = v },
	}
	// waitLookups blocks until key has been looked up n times. A follower
	// looks up under mu and then, in the same critical section, finds the
	// leader's call, so after its lookup it is bound to that call.
	waitLookups := func(t *testing.T, key string, n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			got := lookups[key]
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%q looked up %d times, want %d", key, got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var runs atomic.Int64
	do := func(ctx context.Context, key string, run func() (int, error)) <-chan flightResult {
		out := make(chan flightResult, 1)
		go func() {
			v, fresh, err := f.do(ctx, key, func() (int, error) {
				runs.Add(1)
				return run()
			})
			out <- flightResult{v, fresh, err}
		}()
		return out
	}
	recv := func(t *testing.T, ch <-chan flightResult) flightResult {
		t.Helper()
		select {
		case r := <-ch:
			return r
		case <-time.After(10 * time.Second):
			t.Fatal("do never returned")
			return flightResult{}
		}
	}

	t.Run("leader cancelled, follower reruns", func(t *testing.T) {
		runs.Store(0)
		leaderCtx, cancelLeader := context.WithCancel(context.Background())
		defer cancelLeader()
		leader := do(leaderCtx, "a", func() (int, error) {
			<-leaderCtx.Done()
			return 0, leaderCtx.Err()
		})
		waitLookups(t, "a", 1)
		follower := do(context.Background(), "a", func() (int, error) { return 7, nil })
		waitLookups(t, "a", 2)
		cancelLeader()
		if r := recv(t, leader); !errors.Is(r.err, context.Canceled) || !r.fresh {
			t.Fatalf("leader: %+v, want its own cancellation", r)
		}
		if r := recv(t, follower); r.err != nil || r.val != 7 || !r.fresh {
			t.Fatalf("follower: %+v, want a fresh re-run returning 7", r)
		}
		if got := runs.Load(); got != 2 {
			t.Fatalf("work ran %d times, want 2", got)
		}
		if store["a"] != 7 {
			t.Fatalf("published %d, want 7", store["a"])
		}
	})

	t.Run("follower abandons on its own context", func(t *testing.T) {
		runs.Store(0)
		release := make(chan struct{})
		leader := do(context.Background(), "b", func() (int, error) {
			<-release
			return 1, nil
		})
		waitLookups(t, "b", 1)
		followerCtx, cancelFollower := context.WithCancel(context.Background())
		follower := do(followerCtx, "b", func() (int, error) { return 2, nil })
		waitLookups(t, "b", 2)
		cancelFollower()
		if r := recv(t, follower); !errors.Is(r.err, context.Canceled) || r.fresh {
			t.Fatalf("follower: %+v, want abandonment on its own cancellation", r)
		}
		close(release)
		if r := recv(t, leader); r.err != nil || r.val != 1 || !r.fresh {
			t.Fatalf("leader: %+v, want 1", r)
		}
		if got := runs.Load(); got != 1 {
			t.Fatalf("work ran %d times, want 1", got)
		}
	})

	t.Run("healthy leader error shared", func(t *testing.T) {
		runs.Store(0)
		errInfeasible := errors.New("infeasible")
		release := make(chan struct{})
		leader := do(context.Background(), "c", func() (int, error) {
			<-release
			return 0, errInfeasible
		})
		waitLookups(t, "c", 1)
		follower := do(context.Background(), "c", func() (int, error) { return 3, nil })
		waitLookups(t, "c", 2)
		close(release)
		for name, ch := range map[string]<-chan flightResult{"leader": leader, "follower": follower} {
			if r := recv(t, ch); !errors.Is(r.err, errInfeasible) {
				t.Fatalf("%s: %+v, want the shared error", name, r)
			}
		}
		if got := runs.Load(); got != 1 {
			t.Fatalf("work ran %d times, want 1", got)
		}
		if _, ok := store["c"]; ok {
			t.Fatal("a failed call was published")
		}
	})
}
