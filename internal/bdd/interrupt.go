package bdd

// Cooperative interruption. A long-running verification (a fixpoint, a
// hull iteration) owned by one Manager can be cancelled from another
// goroutine — a job deadline, a client disconnect, a daemon shutdown —
// by calling Interrupt. The kernel itself never polls the flag: the
// fixpoint drivers (reach, sys, emptiness, ctl) call CheckInterrupt at
// their existing reorder/GC safe points, where no unprotected
// intermediate Refs are at risk, and CheckInterrupt unwinds by
// panicking with ErrInterrupted.
//
// The panic is the propagation mechanism, not an error: verdict-carrying
// error returns would have to thread through every fixpoint layer, while
// an interrupted manager is abandoned wholesale (each job owns its
// Manager, so leaked refcounts or garbage on the way out are reclaimed
// with the manager itself). Callers that interrupt must therefore wrap
// the top of the computation with recover and match ErrInterrupted —
// see RecoverInterrupt.
//
// The check is one atomic load; an uninterrupted run pays nothing
// measurable.

// interruptError is the sentinel panic value raised by CheckInterrupt.
type interruptError struct{}

func (interruptError) Error() string { return "bdd: operation interrupted" }

// ErrInterrupted is the value CheckInterrupt panics with after
// Interrupt. Compare with == in a recover handler (RecoverInterrupt
// does this for you).
var ErrInterrupted error = interruptError{}

// Interrupt requests cancellation of the computation running on this
// manager. Safe to call from any goroutine at any time; the running
// computation unwinds at its next safe point. Idempotent.
func (m *Manager) Interrupt() { m.interrupted.Store(true) }

// ResetInterrupt clears a pending interrupt so the manager can be used
// again. Only meaningful once the interrupted computation has unwound.
func (m *Manager) ResetInterrupt() { m.interrupted.Store(false) }

// Interrupted reports whether an interrupt has been requested and not
// yet cleared.
func (m *Manager) Interrupted() bool { return m.interrupted.Load() }

// CheckInterrupt panics with ErrInterrupted when an interrupt is
// pending. Fixpoint drivers call it at their safe points.
func (m *Manager) CheckInterrupt() {
	if m.interrupted.Load() {
		panic(ErrInterrupted)
	}
}

// RecoverInterrupt converts an ErrInterrupted panic into a normal
// return, for use at the boundary that owns the interrupted manager:
//
//	defer bdd.RecoverInterrupt(&err)
//
// Any other panic value is re-raised unchanged. When err already holds
// a value it is left alone (the interrupt lost the race with a real
// failure).
func RecoverInterrupt(err *error) {
	if r := recover(); r != nil {
		if r == ErrInterrupted {
			if *err == nil {
				*err = ErrInterrupted
			}
			return
		}
		panic(r)
	}
}
