package cloud

import "time"

// Faults is the fault-injection seam for chaos testing the robustness
// layer. Every hook is optional (nil injects nothing) and must be safe for
// concurrent use: the server calls them from request goroutines. The hooks
// are deliberately placed at the three spots the degradation ladder
// protects — the arrival-rate predictor, the optimizer, and the handler
// itself — so tests can drive every rung deterministically instead of
// hoping a real failure shows up.
type Faults struct {
	// PredictorErr, when non-nil and returning a non-nil error, makes the
	// arrival-rate predictor fail for the request; the server then degrades
	// to the configured fallback rate instead of failing the request.
	PredictorErr func() error

	// OptimizeDelay, when non-nil, returns an artificial delay inserted
	// before each optimizer run (the exact solve and the coarse-grid rung
	// alike). The sleep is context-aware, so a delay beyond the request's
	// compute budget surfaces as context.DeadlineExceeded exactly like a
	// genuinely slow solve. Returning 0 injects nothing for that run.
	OptimizeDelay func() time.Duration

	// Panic, when non-nil and returning true for a request path, panics
	// inside the handler chain (within the recovery middleware's scope),
	// exercising panic-to-500 conversion.
	Panic func(path string) bool

	// PeerDelay, when non-nil, returns an artificial delay inserted before
	// each cluster exchange from this node to peer `to` (heartbeats, table
	// fetches, replication pushes and forwards alike). The sleep is
	// context-aware. Use it to simulate a slow or congested link — e.g. to
	// force hedged fetches.
	PeerDelay func(to string) time.Duration

	// PeerDrop, when non-nil and returning true for peer `to`, fails the
	// exchange at the connection level before it leaves this node. Because
	// the hook runs on the sending side only, dropping A→B while leaving
	// B→A intact produces a genuinely asymmetric partition.
	PeerDrop func(to string) bool
}

// sleepCtx sleeps for d or until done closes, whichever comes first, and
// reports whether the full delay elapsed.
func sleepCtx(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
