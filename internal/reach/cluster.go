package reach

// Clustered image computation and the engine abstraction: every
// fixpoint in the repository (reachability, CTL, language containment)
// computes images and preimages through an ImageEngine, replaying either
// the monolithic product relation or the network's one precompiled
// plan. Which one is a property of the design: the plan whenever the
// monolithic relation has not been built (network.IsoWorthwhile decides
// that in the core flow), T otherwise. The plan is compiled once per
// network (per reorder epoch) and replay performs no scheduling work.

import (
	"hsis/internal/bdd"
	"hsis/internal/network"
)

// EngineKind selects an image-computation strategy.
type EngineKind int

// Engine kinds.
const (
	// EngineAuto resolves from the network: monolithic when the product
	// transition relation is built, clustered otherwise.
	EngineAuto EngineKind = iota
	// EngineMonolithic uses the product transition relation T (building
	// it on first use if necessary). Tests force it as the reference.
	EngineMonolithic
	// EngineClustered replays the network's one precompiled plan
	// (network.ImagePlan): the iso-instantiated clusters merged across
	// replicas on a replicated design, plain clusters otherwise.
	EngineClustered
)

func (k EngineKind) String() string {
	switch k {
	case EngineMonolithic:
		return "monolithic"
	case EngineClustered:
		return "clustered"
	default:
		return "auto"
	}
}

// ImageEngine computes successor and predecessor sets over a network's
// present-state rail, optionally restricted to an edge predicate.
type ImageEngine interface {
	Kind() EngineKind
	Image(s bdd.Ref) bdd.Ref
	Preimage(s bdd.Ref) bdd.Ref
	// ImageVia returns the successors of s through the transitions
	// satisfying edges (a predicate over the PS and NS rails).
	ImageVia(edges, s bdd.Ref) bdd.Ref
	// PreimageVia returns the predecessors of s through the transitions
	// satisfying edges.
	PreimageVia(edges, s bdd.Ref) bdd.Ref
}

// Resolve returns the kind of engine Engine binds for the request.
// EngineAuto resolves to monolithic when T is already built (it is paid
// for; reuse it) and to the network's plan otherwise — a network whose
// T was skipped never multiplies it out just to take images.
func Resolve(n *network.Network, kind EngineKind) EngineKind {
	if kind != EngineAuto {
		return kind
	}
	if n.TBuilt() {
		return EngineMonolithic
	}
	return EngineClustered
}

// Engine binds an engine of the given kind (see Resolve) to a network.
func Engine(n *network.Network, kind EngineKind) ImageEngine {
	m := n.Manager()
	if kind = Resolve(n, kind); kind == EngineClustered {
		return &engine{n: n, kind: kind,
			post: func(seed bdd.Ref) bdd.Ref { return n.ImagePlan().Run(m, seed) },
			pre:  func(seed bdd.Ref) bdd.Ref { return n.PreimagePlan().Run(m, seed) }}
	}
	return &engine{n: n, kind: EngineMonolithic,
		post: func(seed bdd.Ref) bdd.Ref {
			n.EnsureT()
			return m.AndExists(n.T, seed, n.PSCube())
		},
		pre: func(seed bdd.Ref) bdd.Ref {
			n.EnsureT()
			return m.AndExists(n.T, seed, n.NSCube())
		}}
}

// engine is every ImageEngine: post and pre conjoin a seed with the
// transition relation and quantify the non-state variables plus the
// source rail (PS for post, NS for pre). Since they quantify nothing on
// the other rail, an edge predicate over PS ∪ NS conjoined into the
// seed restricts the step exactly — the edge operators replay the same
// plans as plain images and never need the monolithic T.
type engine struct {
	n         *network.Network
	kind      EngineKind
	post, pre func(seed bdd.Ref) bdd.Ref
}

func (e *engine) Kind() EngineKind           { return e.kind }
func (e *engine) Image(s bdd.Ref) bdd.Ref    { return e.n.SwapRails(e.post(s)) }
func (e *engine) Preimage(s bdd.Ref) bdd.Ref { return e.pre(e.n.SwapRails(s)) }

func (e *engine) ImageVia(edges, s bdd.Ref) bdd.Ref {
	return e.n.SwapRails(e.post(e.n.Manager().And(edges, s)))
}

func (e *engine) PreimageVia(edges, s bdd.Ref) bdd.Ref {
	return e.pre(e.n.Manager().And(edges, e.n.SwapRails(s)))
}
