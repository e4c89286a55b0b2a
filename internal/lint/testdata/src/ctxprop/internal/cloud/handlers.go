// Package cloud exercises ctxprop: request-path functions holding the
// context must not reach blocking operations through context-less
// chains.
package cloud

import (
	"context"
	"net/http"
	"sync"
	"time"
)

type Server struct {
	work    chan int
	results chan int
	ready   chan struct{}
}

// handleSolve holds the request context but drops it calling
// waitForSlot, which parks on a channel receive.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.waitForSlot() // want `holds the request context but calls \(\*cloud\.Server\)\.waitForSlot, a context-less chain that may block \(channel receive`
	w.WriteHeader(http.StatusOK)
}

func (s *Server) waitForSlot() {
	<-s.results
}

// handleDeep drops the context one call before the block: enqueue does
// not itself block but reaches a send through submit.
func (s *Server) handleDeep(ctx context.Context, n int) {
	s.enqueue(n) // want `holds the request context but calls \(\*cloud\.Server\)\.enqueue, a context-less chain that may block \(channel send via \(\*cloud\.Server\)\.enqueue -> \(\*cloud\.Server\)\.submit`
}

func (s *Server) enqueue(n int) {
	s.submit(n)
}

func (s *Server) submit(n int) {
	s.work <- n
}

// handleSleepy reaches a bare time.Sleep through a helper.
func (s *Server) handleSleepy(ctx context.Context) {
	backoff() // want `holds the request context but calls cloud\.backoff, a context-less chain that may block \(time\.Sleep`
}

func backoff() {
	time.Sleep(10 * time.Millisecond)
}

// --- clean cases ---

// handleGood threads ctx all the way: waitCtx selects on ctx.Done.
func (s *Server) handleGood(ctx context.Context) {
	s.waitCtx(ctx)
}

func (s *Server) waitCtx(ctx context.Context) {
	select {
	case <-s.results:
	case <-ctx.Done():
	}
}

// handleDone hands the deadline down as a done channel — the shape of
// ctx.Done(), an accepted cancellation conduit.
func (s *Server) handleDone(ctx context.Context) {
	sleepCtx(time.Millisecond, ctx.Done())
}

func sleepCtx(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// handleReady calls a helper whose receive sits under a select WITH a
// default: non-blocking, no finding.
func (s *Server) handleReady(ctx context.Context) bool {
	return s.isReady()
}

func (s *Server) isReady() bool {
	select {
	case <-s.ready:
		return true
	default:
		return false
	}
}

// handleSpawn launches the blocking work on its own goroutine: the
// request path itself does not park (goleak polices the join).
func (s *Server) handleSpawn(ctx context.Context) {
	go s.waitForSlot()
}

// handleSpawnArg spawns the consumer, but the go statement's argument
// is received by the caller before the spawn: spawnArg parks the
// request path.
func (s *Server) handleSpawnArg(ctx context.Context) {
	s.spawnArg() // want `holds the request context but calls \(\*cloud\.Server\)\.spawnArg, a context-less chain that may block \(channel receive`
}

func (s *Server) spawnArg() {
	go s.consume(<-s.results)
}

func (s *Server) consume(n int) {}

// handleJoin blocks on a WaitGroup join of workers that carry the ctx
// themselves — the blessed bounded fan-out shape, excluded by design.
func (s *Server) handleJoin(ctx context.Context) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.waitCtx(ctx)
	}()
	wg.Wait()
}
