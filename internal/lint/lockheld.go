package lint

import "strings"

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
// The analysis is a view over the summaries' lock walk (summary.go, on
// the flow walker in flow.go): Lock()/RLock() establishes a held fact,
// Unlock()/RUnlock() on the same lock class retires it, branch joins
// union (held on any path counts), and early-exit paths
// (`if err { mu.Unlock(); return }`) are tracked precisely.
// `defer mu.Unlock()` is recognized as the lock being held to function
// exit — blocking calls after it still fire, because the lock IS held
// there. A critical section that computes without blocking and
// unlocks stays silent.
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
	if !anyPathSegment(pass.PkgPath, lockHeldScopes) {
		return nil
	}
	for _, n := range pass.funcs() {
		for _, b := range n.sum.held {
			pass.Reportf(b.pos,
				"%s while %s may still be held: release the lock before blocking, or hand the work to a goroutine",
				b.what, strings.Join(b.locks, ", "))
		}
	}
	return nil
}
