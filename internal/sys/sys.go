// Package sys defines the transition-system abstraction shared by the
// CTL model checker, the language-containment engine and the fair-cycle
// machinery. A System is anything with a state space encoded over BDD
// variables, predecessor/successor operators, and an initial-state set —
// a compiled network, or a product of a network with a property
// automaton.
package sys

import (
	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/reach"
	"hsis/internal/telemetry"
)

// System is a symbolic transition system.
type System interface {
	// Manager returns the BDD manager all sets live in.
	Manager() *bdd.Manager
	// Init returns the initial states (over the present-state rail).
	Init() bdd.Ref
	// Post returns the successors of s.
	Post(s bdd.Ref) bdd.Ref
	// Pre returns the predecessors of s.
	Pre(s bdd.Ref) bdd.Ref
	// PreVia returns the predecessors of s through edges satisfying the
	// edge predicate (a set over PS ∪ NS rails).
	PreVia(edges, s bdd.Ref) bdd.Ref
	// PostVia returns the successors of s through the given edges.
	PostVia(edges, s bdd.Ref) bdd.Ref
	// EdgeSources returns the states of z with at least one outgoing
	// edge in `edges` leading back into z.
	EdgeSources(edges, z bdd.Ref) bdd.Ref
	// StateBits returns the BDD variable IDs of the present-state rail.
	StateBits() []int
	// SwapRails exchanges present- and next-state variables in f.
	SwapRails(f bdd.Ref) bdd.Ref
}

// NetSystem adapts a compiled network to System. Every operator routes
// through the network's image engine: the edge-restricted ones conjoin
// the edge predicate into the seed of a plain image or preimage, so a
// network whose monolithic T was skipped never builds it here.
type NetSystem struct {
	N   *network.Network
	eng reach.ImageEngine
}

// FromNetwork wraps a network as a System, binding the default image
// engine (monolithic when T is built, iso or clustered otherwise).
func FromNetwork(n *network.Network) *NetSystem {
	return &NetSystem{N: n, eng: reach.Engine(n, reach.EngineAuto)}
}

// FromNetworkEngine wraps a network with an explicit engine choice.
func FromNetworkEngine(n *network.Network, kind reach.EngineKind) *NetSystem {
	return &NetSystem{N: n, eng: reach.Engine(n, kind)}
}

// Manager returns the BDD manager of the underlying network.
func (s *NetSystem) Manager() *bdd.Manager { return s.N.Manager() }

// Init returns the network's initial states.
func (s *NetSystem) Init() bdd.Ref { return s.N.Init }

func (s *NetSystem) engine() reach.ImageEngine {
	if s.eng == nil { // zero-value construction
		s.eng = reach.Engine(s.N, reach.EngineAuto)
	}
	return s.eng
}

// Post returns the successors of set.
func (s *NetSystem) Post(set bdd.Ref) bdd.Ref { return s.engine().Image(set) }

// Pre returns the predecessors of set.
func (s *NetSystem) Pre(set bdd.Ref) bdd.Ref { return s.engine().Preimage(set) }

// PreVia returns predecessors through the restricted edge set.
func (s *NetSystem) PreVia(edges, set bdd.Ref) bdd.Ref {
	return s.engine().PreimageVia(edges, set)
}

// PostVia returns successors through the restricted edge set.
func (s *NetSystem) PostVia(edges, set bdd.Ref) bdd.Ref {
	return s.engine().ImageVia(edges, set)
}

// EdgeSources returns the states of z with an out-edge in edges into z.
func (s *NetSystem) EdgeSources(edges, z bdd.Ref) bdd.Ref {
	return s.N.Manager().And(s.PreVia(edges, z), z)
}

// StateBits returns the present-state BDD variables.
func (s *NetSystem) StateBits() []int { return s.N.PSBits() }

// SwapRails exchanges the PS/NS rails in f.
func (s *NetSystem) SwapRails(f bdd.Ref) bdd.Ref { return s.N.SwapRails(f) }

// Reached computes the reachable states of any System.
func Reached(s System) bdd.Ref {
	m := s.Manager()
	reached := s.Init()
	frontier := reached
	t := m.Telemetry()
	step := 0
	for frontier != bdd.False {
		m.CheckInterrupt() // cancellation safe point (see internal/reach)
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("sys.reach.iter")
		}
		next := s.Post(frontier)
		frontier = m.Diff(next, reached)
		reached = m.Or(reached, frontier)
		if t != nil {
			step++
			sp.End(reach.IterFields(m, step, frontier, reached)...)
		}
	}
	return reached
}
