package cloud

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader lets a client request a shorter compute deadline than the
// server default, in milliseconds. Values above the server's configured
// maximum are capped, never honored: the deadline is the server's overload
// protection, so clients may only tighten it.
const DeadlineHeader = "X-Deadline-Ms"

// withRecover converts handler panics into structured 500s and keeps the
// process serving — one poisoned request must not take down the fleet's
// optimizer. The Faults.Panic hook fires inside the recovered scope so
// chaos tests drive this path deterministically.
func (s *Server) withRecover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { //nolint:errorlint // sentinel, by convention compared directly
				panic(v) // net/http's own abort protocol; let it through
			}
			s.panics.Inc()
			s.fail(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", v))
		}()
		if f := s.cfg.Faults.Panic; f != nil && f(r.URL.Path) {
			panic("injected fault: " + r.URL.Path)
		}
		next.ServeHTTP(w, r)
	})
}

// withDeadline applies the per-request compute deadline: the server
// default, tightened per request via the X-Deadline-Ms header (capped at
// MaxDeadlineSec). The deadline rides the request context all the way into
// dp.OptimizeCtx, so a slow solve is cancelled at its next stage boundary
// rather than running to completion for a client that stopped waiting.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.cfg.DefaultDeadlineSec < 0 {
		return next // deadlines disabled by configuration
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.requestDeadline(r))
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// requestDeadline resolves the compute deadline for one request. The
// header is compared with the cap as a float, before any conversion: a
// Duration holds only ~9.2e12 ms, and a larger value (or +Inf) would
// convert to a negative, already-expired deadline instead of the cap.
func (s *Server) requestDeadline(r *http.Request) time.Duration {
	d := secToDur(s.cfg.DefaultDeadlineSec)
	max := secToDur(s.cfg.MaxDeadlineSec)
	if h := r.Header.Get(DeadlineHeader); h != "" {
		if ms, err := strconv.ParseFloat(h, 64); err == nil && ms > 0 {
			d = max
			if ns := ms * float64(time.Millisecond); ns < float64(max) {
				d = time.Duration(ns)
			}
		}
	}
	return min(d, max)
}

// admit wraps a compute endpoint with admission control. MaxInFlight
// requests compute concurrently; up to MaxQueueDepth more wait briefly
// (QueueWaitSec) for a slot; everything beyond that is shed immediately
// with 429 + Retry-After. Shedding beats queueing here because every
// queued optimize pins a goroutine plus, eventually, a DP grid — under a
// stuck optimizer the old behaviour piled up a fleet's worth of both. The
// client's backoff retry (see client.go) turns the 429 into a short delay
// instead of a failure.
func (s *Server) admit(next http.Handler) http.Handler {
	if s.sem == nil {
		return next // admission control disabled by configuration
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}: // free slot, no waiting
		default:
			if s.queued.Add(1) > int64(s.cfg.MaxQueueDepth) {
				s.queued.Add(-1)
				s.shedNow(w)
				return
			}
			wait := time.NewTimer(secToDur(s.cfg.QueueWaitSec))
			select {
			case s.sem <- struct{}{}:
				wait.Stop()
				s.queued.Add(-1)
			case <-wait.C:
				s.queued.Add(-1)
				s.shedNow(w)
				return
			case <-r.Context().Done():
				wait.Stop()
				s.queued.Add(-1)
				s.shedNow(w) // client gone; response is moot but the accounting stays honest
				return
			}
		}
		defer func() { <-s.sem }()
		next.ServeHTTP(w, r)
	})
}

// shedNow rejects a request under load with 429 + Retry-After.
func (s *Server) shedNow(w http.ResponseWriter) {
	s.shed.Inc()
	s.setRetryAfter(w)
	s.fail(w, http.StatusTooManyRequests, "server saturated; retry after backoff")
}

// failRetryable reports a transient condition — compute deadline exhausted
// with every ladder rung dry, or a request abandoned mid-coalesce — as
// 503 + Retry-After so the client's retry policy classifies it correctly.
func (s *Server) failRetryable(w http.ResponseWriter, msg string) {
	s.setRetryAfter(w)
	s.fail(w, http.StatusServiceUnavailable, msg)
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	sec := int(math.Ceil(s.cfg.RetryAfterSec))
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	s.retryAfterIssued.Inc()
}

func secToDur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
