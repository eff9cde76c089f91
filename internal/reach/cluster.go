package reach

// Clustered image computation and the engine abstraction: every
// fixpoint in the repository (reachability, CTL, language containment)
// computes images and preimages through an ImageEngine, selecting the
// monolithic product relation, the per-call-scheduled partitioned
// relation, the precompiled clustered pipeline, or its iso-compiled
// variant. Iso or clustered is the default whenever the monolithic
// relation has not been built — each replays a schedule compiled once
// per network and performs no per-call scheduling work.

import (
	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/quant"
)

// EngineKind selects an image-computation strategy.
type EngineKind int

// Engine kinds.
const (
	// EngineAuto picks monolithic when the product transition relation
	// is already built; otherwise iso when the network's isomorphic
	// latch-cone replication saves enough cluster compiles to pay for
	// itself (network.IsoWorthwhile), clustered if not.
	EngineAuto EngineKind = iota
	// EngineMonolithic uses the product transition relation T (building
	// it on first use if necessary).
	EngineMonolithic
	// EnginePartitioned re-schedules the raw conjuncts on every call
	// (the pre-clustering behavior; kept as an ablation baseline).
	EnginePartitioned
	// EngineClustered replays the precompiled per-network plan.
	EngineClustered
	// EngineIso replays the isomorphism-compiled plan: clusters built
	// once per equivalence class of replicated latch cones and
	// instantiated per replica by variable permutation.
	EngineIso
)

func (k EngineKind) String() string {
	switch k {
	case EngineMonolithic:
		return "monolithic"
	case EnginePartitioned:
		return "partitioned"
	case EngineClustered:
		return "clustered"
	case EngineIso:
		return "iso"
	default:
		return "auto"
	}
}

// ParseEngineKind resolves a CLI engine name; empty and "auto" both map
// to EngineAuto.
func ParseEngineKind(s string) (EngineKind, bool) {
	switch s {
	case "", "auto":
		return EngineAuto, true
	case "monolithic":
		return EngineMonolithic, true
	case "partitioned":
		return EnginePartitioned, true
	case "clustered":
		return EngineClustered, true
	case "iso":
		return EngineIso, true
	default:
		return EngineAuto, false
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
// for; reuse it); otherwise to iso when the network has enough
// replicated latch cones to profit from per-class compilation, and to
// the clustered pipeline if not — SkipMonolithic networks never
// multiply out the product relation just to take images. EngineIso
// degrades to clustered on a network with no replication.
func Resolve(n *network.Network, kind EngineKind) EngineKind {
	switch kind {
	case EngineAuto:
		switch {
		case n.TBuilt():
			return EngineMonolithic
		case n.IsoWorthwhile():
			return EngineIso
		default:
			return EngineClustered
		}
	case EngineIso:
		if !n.IsoAvailable() {
			return EngineClustered
		}
	}
	return kind
}

// Engine binds an engine of the given kind (see Resolve) to a network.
func Engine(n *network.Network, kind EngineKind) ImageEngine {
	m := n.Manager()
	switch kind = Resolve(n, kind); kind {
	case EnginePartitioned:
		return &engine{n: n, kind: kind,
			post: func(seed bdd.Ref) bdd.Ref {
				conjs, qvars := n.ImageOperands(seed)
				return quant.AndExists(m, conjs, qvars, n.Heuristic())
			},
			pre: func(seed bdd.Ref) bdd.Ref {
				conjs, qvars := n.PreimageOperands(seed)
				return quant.AndExists(m, conjs, qvars, n.Heuristic())
			}}
	case EngineIso:
		return &engine{n: n, kind: kind,
			post: func(seed bdd.Ref) bdd.Ref { return n.IsoImagePlan().Run(m, seed) },
			pre:  func(seed bdd.Ref) bdd.Ref { return n.IsoPreimagePlan().Run(m, seed) }}
	case EngineClustered:
		return &engine{n: n, kind: kind,
			post: func(seed bdd.Ref) bdd.Ref { return n.ImagePlan().Run(m, seed) },
			pre:  func(seed bdd.Ref) bdd.Ref { return n.PreimagePlan().Run(m, seed) }}
	default:
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
