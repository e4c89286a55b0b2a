// Fixture for lockheld: blocking operations reached while a mutex may
// still be held, across branches, early returns and defer-unlock.
package cloud

import (
	"net/http"
	"sync"
	"time"
)

type group struct {
	mu sync.Mutex
	rw sync.RWMutex
	wg sync.WaitGroup
	ch chan int
	c  *http.Client
}

// sendWhileHeld flags: a channel send inside the critical section.
func (g *group) sendWhileHeld() {
	g.mu.Lock()
	g.ch <- 1 // want `channel send while g\.mu may still be held`
	g.mu.Unlock()
}

// cleanSection passes: the receive happens after the unlock.
func (g *group) cleanSection(m map[string]int) int {
	g.mu.Lock()
	n := len(m)
	g.mu.Unlock()
	<-g.ch // no finding: lock already released
	return n
}

// earlyExit flags: the error path unlocks and returns, but the
// fall-through path still holds the lock at the receive.
func (g *group) earlyExit(fail bool) {
	g.mu.Lock()
	if fail {
		g.mu.Unlock()
		return
	}
	<-g.ch // want `channel receive while g\.mu may still be held`
	g.mu.Unlock()
}

// deferUnlockBlocking flags: defer keeps the lock held to function
// exit, so the network call runs inside the critical section.
func (g *group) deferUnlockBlocking(req *http.Request) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.c.Do(req) // want `http\.Client\.Do while g\.mu may still be held`
}

// goArgWhileHeld flags: the spawned call runs elsewhere, but its
// argument is received here, inside the critical section.
func (g *group) goArgWhileHeld() {
	g.mu.Lock()
	go g.record(<-g.ch) // want `channel receive while g\.mu may still be held`
	g.mu.Unlock()
}

// deferArgWhileHeld flags: a deferred call's argument is evaluated at
// the defer statement, with the lock held.
func (g *group) deferArgWhileHeld() {
	g.mu.Lock()
	defer g.mu.Unlock()
	defer g.record(<-g.ch) // want `channel receive while g\.mu may still be held`
}

// goSpawnsBlock passes: the send runs on the spawned goroutine.
func (g *group) goSpawnsBlock() {
	g.mu.Lock()
	go g.send(1)
	g.mu.Unlock()
}

func (g *group) record(n int) {}

func (g *group) send(n int) { g.ch <- n }

// waitWhileHeld flags: WaitGroup.Wait can park forever with the read
// lock held.
func (g *group) waitWhileHeld() {
	g.rw.RLock()
	g.wg.Wait() // want `sync g\.wg\.Wait while g\.rw may still be held`
	g.rw.RUnlock()
}

// sleepWhileHeld flags: time.Sleep inside the critical section.
func (g *group) sleepWhileHeld() {
	g.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while g\.mu may still be held`
	g.mu.Unlock()
}

// selectDefault passes: a select with a default arm never blocks.
func (g *group) selectDefault() {
	g.mu.Lock()
	select {
	case v := <-g.ch:
		_ = v
	default:
	}
	g.mu.Unlock()
}

// selectNoDefault flags: without a default the select parks until a
// case is ready.
func (g *group) selectNoDefault(done chan struct{}) {
	g.mu.Lock()
	select { // want `select without default while g\.mu may still be held`
	case <-g.ch:
	case <-done:
	}
	g.mu.Unlock()
}

// bothPathsUnlock passes: every path out of the branch releases the
// lock before the receive.
func (g *group) bothPathsUnlock(ok bool) {
	g.mu.Lock()
	if ok {
		g.mu.Unlock()
	} else {
		g.mu.Unlock()
	}
	<-g.ch // no finding: released on every path
}

// goroutineBody passes: the goroutine runs without the caller's lock
// (its body is walked as its own function with fresh facts).
func (g *group) goroutineBody() {
	g.mu.Lock()
	go func() {
		<-g.ch // no finding: not holding the launcher's lock
	}()
	g.mu.Unlock()
}

// loopLock flags: the send sits inside the critical section every
// iteration (and the walker's loop handling must not lose the fact).
func (g *group) loopLock(keys []string) {
	for range keys {
		g.mu.Lock()
		g.ch <- 1 // want `channel send while g\.mu may still be held`
		g.mu.Unlock()
	}
}

// twoReceivers flags: releasing b.mu does not release a.mu, even though
// both locks are the same field of the same type.
func twoReceivers(a, b *group) {
	a.mu.Lock()
	b.mu.Unlock()
	<-a.ch // want `channel receive while a\.mu may still be held`
	a.mu.Unlock()
}
