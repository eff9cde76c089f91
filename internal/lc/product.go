package lc

import (
	"fmt"
	"sync/atomic"

	"hsis/internal/bdd"
	"hsis/internal/ctl"
	"hsis/internal/fair"
	"hsis/internal/mdd"
	"hsis/internal/network"
	"hsis/internal/pif"
	"hsis/internal/quant"
)

// Product is the synchronous product of a design with a property
// automaton: states are (design state, automaton state) pairs, and a
// transition exists when the design takes a step whose source-state
// observation drives the automaton along a matching edge. It implements
// sys.System.
type Product struct {
	N *network.Network
	A *Automaton

	APS, ANS *mdd.Var // automaton present/next state variables
	Delta    bdd.Ref  // automaton transition relation δ(x, a, a')
	// T is the monolithic product relation T ∧ δ, built only when the
	// design's T is (bdd.False otherwise: the plans below stand in).
	T    bdd.Ref
	init bdd.Ref

	psBits, nsBits []int
	perm           []int

	// Precompiled image pipeline over the design's image clusters plus
	// δ, compiled instead of T when the design's T is not built.
	imgPlan, prePlan *quant.CompiledPlan
}

// productCounter disambiguates product state-variable names. Atomic:
// independent workspaces (one per daemon job) build products
// concurrently with no shared lock between them.
var productCounter atomic.Int64

// NewProduct builds the product system. It extends the design's BDD
// manager with two fresh automaton state variables.
func NewProduct(n *network.Network, a *Automaton) *Product {
	m := n.Manager()
	base := fmt.Sprintf("_aut%d_%s", productCounter.Add(1), a.Name)
	aps := n.Space().NewVar(base, len(a.States))
	ans := n.Space().NewVar(base+"$ns", len(a.States))

	delta := bdd.False
	for _, e := range a.Edges {
		t := m.AndN(aps.Eq(e.From), e.Guard, ans.Eq(e.To))
		delta = m.Or(delta, t)
	}

	p := &Product{
		N: n, A: a,
		APS: aps, ANS: ans,
		Delta: delta,
		T:     bdd.False,
		init:  m.And(n.Init, aps.Eq(a.Init)),
	}
	p.psBits = append(append([]int(nil), n.PSBits()...), aps.Bits()...)
	p.nsBits = append(append([]int(nil), n.NSBits()...), ans.Bits()...)
	psv := append(append([]*mdd.Var(nil), n.PSVars()...), aps)
	nsv := append(append([]*mdd.Var(nil), n.NSVars()...), ans)
	p.perm = n.Space().Permutation(psv, nsv)
	if n.TBuilt() {
		p.T = m.And(n.T, delta)
	} else {
		p.compilePlans()
	}
	m.IncRef(p.T)
	m.IncRef(p.init)
	return p
}

// compilePlans freezes the product-level schedules: the design's image
// clusters (the iso-instantiated ones on replicated designs) plus δ,
// quantifying the product rails and every non-rail variable. δ mentions
// only rail variables (guards are present-state labels), so the plans
// compute exactly the steps of T ∧ δ without ever forming it.
func (p *Product) compilePlans() {
	m := p.Manager()
	conjs := append(append([]quant.Conjunct(nil), p.N.ImageClusters()...),
		quant.Conjunct{F: p.Delta, Support: m.Support(p.Delta)})
	rail := make(map[int]bool, len(p.psBits)+len(p.nsBits))
	for _, b := range p.psBits {
		rail[b] = true
	}
	for _, b := range p.nsBits {
		rail[b] = true
	}
	var nonRail []int
	for b := 0; b < m.NumVars(); b++ {
		if !rail[b] {
			nonRail = append(nonRail, b)
		}
	}
	imgQ := append(append([]int(nil), nonRail...), p.psBits...)
	preQ := append(append([]int(nil), nonRail...), p.nsBits...)
	p.imgPlan = quant.Compile(m, conjs, p.psBits, imgQ)
	p.prePlan = quant.Compile(m, conjs, p.nsBits, preQ)
	p.imgPlan.Retain(m)
	p.prePlan.Retain(m)
}

// Manager returns the shared BDD manager.
func (p *Product) Manager() *bdd.Manager { return p.N.Manager() }

// Init returns the product initial states.
func (p *Product) Init() bdd.Ref { return p.init }

// StateBits returns the product present-state BDD variables.
func (p *Product) StateBits() []int { return p.psBits }

// SwapRails exchanges present- and next-state rails of the product.
func (p *Product) SwapRails(f bdd.Ref) bdd.Ref { return p.Manager().Permute(f, p.perm) }

// post conjoins seed with the product relation and quantifies the
// non-rail variables and the present-state rail; pre is the same for
// the next-state rail. Neither touches the opposite rail, so an edge
// predicate conjoined into the seed restricts the step exactly.
func (p *Product) post(seed bdd.Ref) bdd.Ref {
	m := p.Manager()
	if p.imgPlan != nil {
		return p.imgPlan.Run(m, seed)
	}
	return m.AndExists(p.T, seed, m.Cube(p.psBits))
}

func (p *Product) pre(seed bdd.Ref) bdd.Ref {
	m := p.Manager()
	if p.prePlan != nil {
		return p.prePlan.Run(m, seed)
	}
	return m.AndExists(p.T, seed, m.Cube(p.nsBits))
}

// Post returns the successors of s in the product.
func (p *Product) Post(s bdd.Ref) bdd.Ref { return p.SwapRails(p.post(s)) }

// Pre returns the predecessors of s in the product.
func (p *Product) Pre(s bdd.Ref) bdd.Ref { return p.pre(p.SwapRails(s)) }

// PreVia returns predecessors through the restricted edge set.
func (p *Product) PreVia(edges, s bdd.Ref) bdd.Ref {
	return p.pre(p.Manager().And(edges, p.SwapRails(s)))
}

// PostVia returns successors through the restricted edge set.
func (p *Product) PostVia(edges, s bdd.Ref) bdd.Ref {
	return p.SwapRails(p.post(p.Manager().And(edges, s)))
}

// EdgeSources returns the states of z with an out-edge in edges into z.
func (p *Product) EdgeSources(edges, z bdd.Ref) bdd.Ref {
	return p.Manager().And(p.PreVia(edges, z), z)
}

// EdgeSet returns the edge predicate of one automaton edge inside the
// product (source observation included).
func (p *Product) EdgeSet(i int) bdd.Ref {
	e := p.A.Edges[i]
	m := p.Manager()
	return m.AndN(p.APS.Eq(e.From), e.Guard, p.ANS.Eq(e.To))
}

// StateSet returns the predicate "automaton is in one of the given
// states".
func (p *Product) StateSet(states []int) bdd.Ref {
	m := p.Manager()
	r := bdd.False
	for _, s := range states {
		r = m.Or(r, p.APS.Eq(s))
	}
	return r
}

// ComplementAcceptance translates the automaton's Rabin pairs into the
// Streett fairness constraints their complement imposes on the product
// (a run of the design violates the property iff it satisfies ALL of
// them): for a pair (avoid L, recur U), the complement condition is
// GF(U) → GF(L). State sets are lifted to edge sets (a state recurs iff
// an edge out of it recurs).
func (p *Product) ComplementAcceptance() *fair.Constraints {
	m := p.Manager()
	fc := &fair.Constraints{}
	for i, pair := range p.A.Pairs {
		l := p.StateSet(pair.AvoidStates) // over aPS: any outgoing edge
		for _, ei := range pair.AvoidEdges {
			l = m.Or(l, p.EdgeSet(ei))
		}
		u := p.StateSet(pair.RecurStates)
		for _, ei := range pair.RecurEdges {
			u = m.Or(u, p.EdgeSet(ei))
		}
		fc.Streett = append(fc.Streett, fair.Streett{
			Name:  fmt.Sprintf("%s.pair%d", p.A.Name, i),
			L:     u, // GF(recur) →
			U:     l, //   GF(avoid)
			LEdge: true,
			UEdge: true,
		})
	}
	return fc
}

// CompileFairness resolves PIF fairness constraints against a design.
func CompileFairness(n *network.Network, specs []pif.FairSpec) (*fair.Constraints, error) {
	m := n.Manager()
	fc := &fair.Constraints{}
	for i, s := range specs {
		expr, err := ctl.EvalProp(m, s.Expr, n.LabelEq)
		if err != nil {
			return nil, fmt.Errorf("fairness %d: %w", i, err)
		}
		name := fmt.Sprintf("fair%d", i)
		switch s.Kind {
		case pif.NegativeState:
			fc.AddNegativeStateSubset(m, name, expr)
		case pif.PositiveState:
			fc.AddPositiveStateSubset(name, expr)
		case pif.PositiveEdge:
			to, err := ctl.EvalProp(m, s.To, n.LabelEq)
			if err != nil {
				return nil, fmt.Errorf("fairness %d: %w", i, err)
			}
			fc.AddPositiveFairEdges(name, m.And(expr, n.SwapRails(to)))
		default:
			return nil, fmt.Errorf("fairness %d: unknown kind", i)
		}
	}
	// The constraints live as long as the workspace that holds them, and
	// fixpoints that read them contain GC and reorder safe points: protect
	// them, or a sift's opening GC frees their nodes for swaps to reuse.
	for _, b := range fc.Buchi {
		m.IncRef(b.Set)
	}
	return fc, nil
}
