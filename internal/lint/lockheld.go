package lint

import "go/types"

// LockHeld flags blocking operations performed while a sync.Mutex or
// sync.RWMutex may still be held — the failure mode that turns one slow
// peer into a full-node stall in the cluster paths (peer.go heartbeats,
// table fetches, replication pushes, DESIGN.md §13):
//
//   - channel sends and receives (including range-over-channel and
//     selects without a default arm),
//   - sync waits (WaitGroup.Wait, Cond.Wait),
//   - network calls (http.Client.Do/Get/Post/..., the net/http package
//     helpers) and time.Sleep.
//
// The findings are the held blocks of the summaries' lock walk
// (summary.go lockWalk), a may-held dataflow over the flow walker:
// Lock()/RLock() establishes a held fact, Unlock()/RUnlock() on the same
// receiver expression retires it, branch joins union (held on any path
// counts), and early-exit paths (`if err { mu.Unlock(); return }`) are
// tracked precisely. `defer mu.Unlock()` is recognized as the lock being
// held to function exit — blocking calls after it still fire, because
// the lock IS held there. A critical section that computes without
// blocking and unlocks stays silent. Function literals are walked as
// functions of their own, from an empty held set.
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "no blocking calls (network, channels, sync waits) while a mutex may be held\n\n" +
		"Flow-sensitive: tracks Lock/Unlock across branches and early returns, recognizes\n" +
		"defer-unlock, and flags channel ops, WaitGroup/Cond waits, http.Client calls and\n" +
		"time.Sleep reached with a lock still held.",
	Run: runLockHeld,
}

// lockHeldScopes: the concurrent serving and numeric packages.
var lockHeldScopes = []string{
	"internal/cloud", "internal/cluster", "internal/dp", "internal/neural",
	"internal/metrics", "internal/par", "cmd",
}

func runLockHeld(pass *Pass) error {
	if pass.Prog == nil || !anyPathSegment(pass.PkgPath, lockHeldScopes) {
		return nil
	}
	for _, n := range pass.Prog.order {
		if n.pkg.PkgPath != pass.PkgPath {
			continue
		}
		for _, b := range n.sum.heldBlocks {
			pass.Reportf(b.pos,
				"%s while %s may still be held: release the lock before blocking, or hand the work to a goroutine",
				b.what, b.locks)
		}
	}
	return nil
}

func anyPathSegment(path string, scopes []string) bool {
	for _, s := range scopes {
		if pathHasSegments(path, s) {
			return true
		}
	}
	return false
}

// isMutexType matches sync.Mutex, sync.RWMutex and the sync.Locker
// interface (pointer receivers already stripped by the caller).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.TypeString(t, nil) {
	case "sync.Mutex", "sync.RWMutex", "sync.Locker":
		return true
	}
	return false
}

// isSyncWaitType matches sync.WaitGroup and sync.Cond receivers.
func isSyncWaitType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch types.TypeString(t, nil) {
	case "sync.WaitGroup", "sync.Cond":
		return true
	}
	return false
}
