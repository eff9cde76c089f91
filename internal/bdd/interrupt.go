package bdd

// Cooperative interruption. A long-running verification (a fixpoint, a
// hull iteration) owned by one Manager can be cancelled from another
// goroutine — a job deadline, a client disconnect, a daemon shutdown —
// by calling Interrupt. The kernel itself never polls the flag: every
// loop that iterates images calls CheckInterrupt at its head — the
// fixpoints of reach, sys, emptiness and ctl, the bounded scan of lc and
// the searches of debug's error-trace extraction — and CheckInterrupt
// unwinds by panicking with ErrInterrupted. Only reach's loop head is
// also a reorder/GC safe point; elsewhere unprotected intermediate Refs
// may be live when the panic fires, which is harmless because an
// interrupted manager is never used again (below).
//
// The panic is the propagation mechanism, not an error: verdict-carrying
// error returns would have to thread through every fixpoint layer, while
// an interrupted manager is abandoned wholesale (each job owns its
// Manager, so leaked refcounts or garbage on the way out are reclaimed
// with the manager itself). Callers that interrupt must therefore wrap
// the top of the computation with recover and match ErrInterrupted.
//
// The check is one atomic load; an uninterrupted run pays nothing
// measurable.

// interruptError is the sentinel panic value raised by CheckInterrupt.
type interruptError struct{}

func (interruptError) Error() string { return "bdd: operation interrupted" }

// ErrInterrupted is the value CheckInterrupt panics with after
// Interrupt. Compare with == in a recover handler.
var ErrInterrupted error = interruptError{}

// Interrupt requests cancellation of the computation running on this
// manager. Safe to call from any goroutine at any time; the running
// computation unwinds at its next safe point. Idempotent.
func (m *Manager) Interrupt() { m.interrupted.Store(true) }

// CheckInterrupt panics with ErrInterrupted when an interrupt is
// pending. Fixpoint drivers call it at their safe points.
func (m *Manager) CheckInterrupt() {
	if m.interrupted.Load() {
		panic(ErrInterrupted)
	}
}
