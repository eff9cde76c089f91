// Package network implements the combinational/sequential (c/s)
// concurrency model of BLIF-MV (paper §4): a flat model becomes a set of
// MDD variables, one relation BDD per table, and a product transition
// relation T(x, y) over present-state (x) and next-state (y) rails,
// obtained by conjoining all relations and existentially quantifying the
// non-state variables with an early-quantification schedule.
//
// The next-state rail reuses each latch's input variable where possible
// (the latch transfers its input to its output at every clock tick);
// when a latch input cannot serve as a next-state variable — it is
// shared between latches, or is itself a latch output — an auxiliary
// next-state variable plus an equality relation is introduced.
package network

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/mdd"
	"hsis/internal/order"
	"hsis/internal/quant"
	"hsis/internal/reorder"
	"hsis/internal/telemetry"
)

// Options configures symbolic compilation.
type Options struct {
	// Heuristic selects the early-quantification scheduler.
	Heuristic quant.Heuristic
	// Order optionally fixes the MDD variable creation order (variable
	// names of the flat model). Default: order.Compute.
	Order []string
	// SkipMonolithic leaves N.T unbuilt (False); reachability then uses
	// the partitioned relation via Conjuncts (Ablation F) or the
	// clustered plans.
	SkipMonolithic bool
	// NaiveQuantification disables early quantification and builds the
	// full conjunction before quantifying (Ablation A baseline).
	NaiveQuantification bool
	// ClusterLimit bounds the BDD size of one merged conjunct cluster in
	// the precompiled image pipeline (0 = quant.DefaultClusterLimit).
	ClusterLimit int
	// ExactOrder places the names in Order verbatim: a latch's next-state
	// variable is auto-created right after its output only when its name
	// is absent from Order, and names unknown to the model are skipped.
	// This is how an order saved after dynamic reordering is replayed.
	ExactOrder bool
	// AutoReorder arms growth-triggered sifting on the manager: when live
	// nodes grow past the adaptive threshold, the next reachability safe
	// point runs a converging block sift.
	AutoReorder bool
	// ReorderOpts tunes the automatic sift runs (growth bound and the
	// acceleration ablation switches); Converge is forced on.
	ReorderOpts reorder.Options
	// ReorderTrigger overrides the auto-sift growth trigger factor
	// (<= 1 keeps the default 2).
	ReorderTrigger float64
	// Telemetry, when non-nil, becomes the new manager's observability
	// scope (Manager.SetTelemetry) before any node is built, so even
	// construction-time GC and cache-growth events land in the right
	// per-job sink.
	Telemetry *telemetry.Scope
}

// Latch pairs a source latch with its present/next-state variables.
type Latch struct {
	Src *blifmv.Latch
	PS  *mdd.Var
	NS  *mdd.Var
	Aux bool // NS is an auxiliary variable tied to the latch input by an equality relation
}

// Network is the symbolic form of one flat model.
type Network struct {
	mgr   *bdd.Manager
	space *mdd.Space
	model *blifmv.Model

	latches []*Latch
	inputs  []*mdd.Var // primary inputs (free variables)

	conjuncts []quant.Conjunct // table relations + auxiliary equalities
	nonState  []int            // BDD variable IDs quantified out of T

	// Conjunct provenance, used by isomorphism detection to partition the
	// conjuncts by owning latch cone: tableConj[ti] is the conjunct index
	// of model table ti, latchConj[li] lists the extra conjunct indices
	// (auxiliary equality, domain constraint) of latch li.
	tableConj []int
	latchConj [][]int

	// Isomorphism-exploiting image pipeline (see iso.go), detected and
	// compiled lazily like the clustered plans.
	iso *isoState

	// Clustered image pipeline, compiled lazily on first use: the
	// conjuncts merged into size-bounded clusters, and one frozen
	// multiply-and-quantify plan per direction. The plans are stamped
	// with the manager's reorder epoch; after a sift session changes the
	// variable order the stale schedule (cluster sizes and step order
	// were tuned for the old order) is released and re-derived.
	clusters     []quant.Conjunct
	imgPlan      *quant.CompiledPlan
	prePlan      *quant.CompiledPlan
	plansBuilt   bool
	planEpoch    int // Manager.ReorderCount() when the plans were compiled
	clusterLimit int

	// Reusable operand buffers, so the per-call partitioned engine
	// allocates no operand slices per image.
	imgConjs, preConjs []quant.Conjunct
	imgQVars, preQVars []int

	psVars, nsVars []*mdd.Var
	psBits, nsBits []int
	perm           []int // BDD permutation swapping the PS and NS rails

	// T is the product transition relation over PS ∪ NS (bdd.False when
	// SkipMonolithic was set and EnsureT has not run). Init is the set
	// of initial states over PS.
	T    bdd.Ref
	Init bdd.Ref

	heur  quant.Heuristic
	naive bool

	tBuilt bool // T holds the monolithic relation (see EnsureT)

	labels labelCones // cone-local LabelEq state (label.go)
}

// Build compiles a flat model. The model must contain at least one latch
// (a purely combinational description has no state to verify).
func Build(flat *blifmv.Model, opts Options) (*Network, error) {
	if len(flat.Latches) == 0 {
		return nil, fmt.Errorf("network: model %q has no latches", flat.Name)
	}
	n := &Network{
		mgr:   bdd.New(),
		model: flat,
		heur:  opts.Heuristic,
	}
	if opts.Telemetry != nil {
		n.mgr.SetTelemetry(opts.Telemetry)
	}
	n.space = mdd.NewSpace(n.mgr)

	names := opts.Order
	if names == nil {
		names = order.Compute(flat)
	}

	// Decide the next-state variable name for each latch.
	latchByOutput := make(map[string]*blifmv.Latch, len(flat.Latches))
	for _, l := range flat.Latches {
		latchByOutput[l.Output] = l
	}
	nsName := make(map[*blifmv.Latch]string, len(flat.Latches))
	nsAux := make(map[*blifmv.Latch]bool, len(flat.Latches))
	claimed := make(map[string]bool)
	for _, l := range flat.Latches {
		usable := l.Input != l.Output && latchByOutput[l.Input] == nil && !claimed[l.Input]
		if usable {
			nsName[l] = l.Input
			claimed[l.Input] = true
		} else {
			nsName[l] = l.Output + "$ns"
			nsAux[l] = true
		}
	}

	// Create MDD variables in order; a latch output is immediately
	// followed by its next-state variable (interleaved rails, ref [1]).
	// Under ExactOrder the list is authoritative — auxiliary $ns names
	// appear in it explicitly (order.Snapshot records them), so the
	// auto-follow only fills in names the list does not place itself.
	inOrder := make(map[string]bool, len(names))
	if opts.ExactOrder {
		for _, name := range names {
			inOrder[name] = true
		}
	}
	makeVar := func(name string) *mdd.Var {
		if v := n.space.ByName(name); v != nil {
			return v
		}
		return n.space.NewVar(name, flat.Var(name).Card)
	}
	cardOf := func(name string) int {
		if l := latchByOutput[strings.TrimSuffix(name, "$ns")]; l != nil && nsName[l] == name {
			return flat.Var(l.Output).Card
		}
		if mv := flat.Var(name); mv != nil {
			return mv.Card
		}
		return 0
	}
	for _, name := range names {
		if n.space.ByName(name) != nil {
			continue
		}
		card := cardOf(name)
		if card == 0 {
			continue // unknown to this model (stale saved order): skip
		}
		n.space.NewVar(name, card)
		if l := latchByOutput[name]; l != nil && !inOrder[nsName[l]] {
			if n.space.ByName(nsName[l]) == nil {
				n.space.NewVar(nsName[l], card)
			}
		}
	}
	// Any variable missed by the ordering (defensive) and auxiliary NS
	// variables for latches whose output was absent from names.
	for _, l := range flat.Latches {
		makeVar(l.Output)
		if n.space.ByName(nsName[l]) == nil {
			n.space.NewVar(nsName[l], n.space.ByName(l.Output).Card())
		}
	}
	for vn := range flat.Vars {
		makeVar(vn)
	}

	// Record rails.
	for _, l := range flat.Latches {
		ps := n.space.ByName(l.Output)
		ns := n.space.ByName(nsName[l])
		n.latches = append(n.latches, &Latch{Src: l, PS: ps, NS: ns, Aux: nsAux[l]})
		n.psVars = append(n.psVars, ps)
		n.nsVars = append(n.nsVars, ns)
		n.psBits = append(n.psBits, ps.Bits()...)
		n.nsBits = append(n.nsBits, ns.Bits()...)
	}
	for _, in := range flat.Inputs {
		n.inputs = append(n.inputs, n.space.ByName(in))
	}
	n.perm = n.space.Permutation(n.psVars, n.nsVars)

	// Each latch's present/next-state pair sifts as one block: the
	// Permute-based rail swap is correct under any order, but keeping
	// the rails interleaved keeps it (and image computation) cheap.
	for _, l := range n.latches {
		n.mgr.GroupVars(append(append([]int(nil), l.PS.Bits()...), l.NS.Bits()...))
	}
	if opts.AutoReorder {
		ropts := opts.ReorderOpts
		ropts.Converge = true
		reorder.EnableAuto(n.mgr, opts.ReorderTrigger, 0, ropts)
	}

	// Non-state variables: everything not on the PS or NS rail.
	rail := make(map[int]bool, len(n.psBits)+len(n.nsBits))
	for _, b := range n.psBits {
		rail[b] = true
	}
	for _, b := range n.nsBits {
		rail[b] = true
	}
	for b := 0; b < n.mgr.NumVars(); b++ {
		if !rail[b] {
			n.nonState = append(n.nonState, b)
		}
	}

	// Relation conjuncts.
	for ti, t := range flat.Tables {
		rel, sup, err := n.tableRel(t)
		if err != nil {
			return nil, fmt.Errorf("network: table %d of %s: %w", ti, flat.Name, err)
		}
		n.tableConj = append(n.tableConj, len(n.conjuncts))
		n.conjuncts = append(n.conjuncts, quant.Conjunct{F: rel, Support: sup})
	}
	n.latchConj = make([][]int, len(n.latches))
	for li, l := range n.latches {
		if l.Aux {
			in := n.space.ByName(l.Src.Input)
			eq := l.NS.EqVar(in)
			n.latchConj[li] = append(n.latchConj[li], len(n.conjuncts))
			n.conjuncts = append(n.conjuncts, quant.Conjunct{
				F:       eq,
				Support: append(append([]int(nil), l.NS.Bits()...), in.Bits()...),
			})
		}
		// Keep next states inside the variable's domain even when the
		// latch input is an unconstrained primary input.
		if dom := l.NS.Domain(); dom != bdd.True {
			n.latchConj[li] = append(n.latchConj[li], len(n.conjuncts))
			n.conjuncts = append(n.conjuncts, quant.Conjunct{F: dom, Support: l.NS.Bits()})
		}
	}
	// The partitioned engines read the conjuncts on every image call,
	// across GC and reorder safe points: protect them for the life of
	// the network.
	for _, c := range n.conjuncts {
		n.mgr.IncRef(c.F)
	}

	// Initial states.
	n.Init = bdd.True
	for _, l := range n.latches {
		n.Init = n.mgr.And(n.Init, l.PS.In(l.Src.Init))
	}

	// The clustered image pipeline (size-bounded clusters plus one frozen
	// quantification schedule per direction) is compiled lazily by
	// ensurePlans on first use, so a run that only ever touches the
	// monolithic or per-call partitioned engines never pays for it.
	n.clusterLimit = opts.ClusterLimit
	n.buildPartitionedBuffers()

	// Product transition relation.
	n.naive = opts.NaiveQuantification
	if opts.SkipMonolithic {
		n.T = bdd.False
	} else {
		n.buildT()
	}
	n.mgr.IncRef(n.T)
	n.mgr.IncRef(n.Init)
	return n, nil
}

// ensurePlans compiles the clustered image pipeline on first use and
// recompiles it when a reorder session has run since: cluster merging is
// bounded by BDD node counts, which a sift changes, so a schedule tuned
// for the old variable order is stale. Non-state variables are
// pre-quantified during clustering when local to one cluster; the
// remaining schedule (which variables die at which cluster) is computed
// here and merely replayed by every image/preimage call.
func (n *Network) ensurePlans() {
	epoch := n.mgr.ReorderCount()
	if n.plansBuilt && n.planEpoch == epoch {
		return
	}
	if n.plansBuilt {
		// Superseded by a reorder session: release the stale schedule
		// before re-deriving it under the new order.
		n.imgPlan.Release(n.mgr)
		n.prePlan.Release(n.mgr)
		for _, c := range n.clusters {
			n.mgr.DecRef(c.F)
		}
	}
	n.clusters = quant.Clusters(n.mgr, n.conjuncts, n.nonState, n.clusterLimit)
	for _, c := range n.clusters {
		n.mgr.IncRef(c.F)
	}
	imgQ := append(append([]int(nil), n.nonState...), n.psBits...)
	preQ := append(append([]int(nil), n.nonState...), n.nsBits...)
	n.imgPlan = quant.Compile(n.mgr, n.clusters, n.psBits, imgQ)
	n.prePlan = quant.Compile(n.mgr, n.clusters, n.nsBits, preQ)
	n.imgPlan.Retain(n.mgr)
	n.prePlan.Retain(n.mgr)
	n.plansBuilt = true
	n.planEpoch = epoch
}

// buildPartitionedBuffers preallocates the operand slices the
// per-call-scheduled partitioned engine reuses on every image.
func (n *Network) buildPartitionedBuffers() {
	n.imgConjs = make([]quant.Conjunct, len(n.conjuncts)+1)
	copy(n.imgConjs, n.conjuncts)
	n.preConjs = make([]quant.Conjunct, len(n.conjuncts)+1)
	copy(n.preConjs, n.conjuncts)
	n.imgQVars = append(append([]int(nil), n.nonState...), n.psBits...)
	n.preQVars = append(append([]int(nil), n.nonState...), n.nsBits...)
}

// ImageOperands returns the conjunct list (every table relation plus the
// present-state set s) and the quantification variables for one
// partitioned image call. The returned slices are buffers owned by the
// network, valid until the next ImageOperands call.
func (n *Network) ImageOperands(s bdd.Ref) ([]quant.Conjunct, []int) {
	n.imgConjs[len(n.imgConjs)-1] = quant.Conjunct{F: s, Support: n.psBits}
	return n.imgConjs, n.imgQVars
}

// PreimageOperands is the next-state counterpart of ImageOperands; sNext
// must already live on the NS rail (SwapRails applied).
func (n *Network) PreimageOperands(sNext bdd.Ref) ([]quant.Conjunct, []int) {
	n.preConjs[len(n.preConjs)-1] = quant.Conjunct{F: sNext, Support: n.nsBits}
	return n.preConjs, n.preQVars
}

// ImagePlan returns the precompiled clustered image schedule, compiling
// (or, after a reorder session, recompiling) it on demand.
func (n *Network) ImagePlan() *quant.CompiledPlan {
	n.ensurePlans()
	return n.imgPlan
}

// PreimagePlan returns the precompiled clustered preimage schedule,
// compiling it on demand like ImagePlan.
func (n *Network) PreimagePlan() *quant.CompiledPlan {
	n.ensurePlans()
	return n.prePlan
}

// ClusterConjuncts returns the clustered partitioned transition relation
// (non-state variables local to one cluster already quantified out),
// compiling it on demand. Callers must not mutate the slice and must not
// hold it across a reorder session (it is re-derived then).
func (n *Network) ClusterConjuncts() []quant.Conjunct {
	n.ensurePlans()
	return n.clusters
}

// TBuilt reports whether the monolithic product transition relation has
// been built (false until EnsureT on a SkipMonolithic network).
func (n *Network) TBuilt() bool { return n.tBuilt }

func (n *Network) buildT() {
	if n.naive {
		n.T = quant.Naive(n.mgr, n.conjuncts, n.nonState)
		n.tBuilt = true
		return
	}
	n.ensurePlans()
	if n.clusters != nil {
		// The clusters already absorbed the locally-quantifiable
		// non-state variables; finish from them instead of redoing the
		// full schedule over raw conjuncts.
		n.T = quant.AndExists(n.mgr, n.clusters, n.nonState, n.heur)
	} else {
		n.T = quant.AndExists(n.mgr, n.conjuncts, n.nonState, n.heur)
	}
	n.tBuilt = true
}

// EnsureT builds the monolithic product transition relation on demand
// when the network was created with SkipMonolithic. It is idempotent.
func (n *Network) EnsureT() {
	if n.tBuilt {
		return
	}
	n.mgr.DecRef(n.T)
	n.buildT()
	n.mgr.IncRef(n.T)
}

// tableRel builds the relation BDD of one table together with its
// structural support.
func (n *Network) tableRel(t *blifmv.Table) (bdd.Ref, []int, error) {
	m := n.mgr
	inVars := make([]*mdd.Var, len(t.Inputs))
	for i, name := range t.Inputs {
		inVars[i] = n.space.ByName(name)
		if inVars[i] == nil {
			return bdd.False, nil, fmt.Errorf("unknown input column %q", name)
		}
	}
	outVars := make([]*mdd.Var, len(t.Outputs))
	for i, name := range t.Outputs {
		outVars[i] = n.space.ByName(name)
		if outVars[i] == nil {
			return bdd.False, nil, fmt.Errorf("unknown output column %q", name)
		}
	}
	setBDD := func(vs blifmv.ValueSet, v *mdd.Var) bdd.Ref {
		if vs.All {
			return bdd.True
		}
		return v.In(vs.Vals)
	}
	rows := bdd.False
	covered := bdd.False
	for _, r := range t.Rows {
		inConj := bdd.True
		for i, vs := range r.In {
			inConj = m.And(inConj, setBDD(vs, inVars[i]))
		}
		rowRel := inConj
		for j, o := range r.Out {
			if o.EqInput >= 0 {
				rowRel = m.And(rowRel, outVars[j].EqVar(inVars[o.EqInput]))
			} else {
				rowRel = m.And(rowRel, setBDD(o.Set, outVars[j]))
			}
		}
		rows = m.Or(rows, rowRel)
		covered = m.Or(covered, inConj)
	}
	if t.Default != nil {
		defConj := m.Not(covered)
		for j, vs := range t.Default {
			defConj = m.And(defConj, setBDD(vs, outVars[j]))
		}
		rows = m.Or(rows, defConj)
	}
	// Constrain every column to its valid domain; "-" means any *valid*
	// value, and outputs never take invalid codes.
	rel := rows
	var sup []int
	for _, v := range append(append([]*mdd.Var(nil), inVars...), outVars...) {
		rel = m.And(rel, v.Domain())
		sup = append(sup, v.Bits()...)
	}
	sort.Ints(sup)
	sup = dedupInts(sup)
	return rel, sup, nil
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Manager returns the BDD manager owning all of the network's functions.
func (n *Network) Manager() *bdd.Manager { return n.mgr }

// Space returns the MDD variable space.
func (n *Network) Space() *mdd.Space { return n.space }

// Model returns the flat source model.
func (n *Network) Model() *blifmv.Model { return n.model }

// Latches returns the latch records in declaration order.
func (n *Network) Latches() []*Latch { return n.latches }

// Inputs returns the primary-input variables.
func (n *Network) Inputs() []*mdd.Var { return n.inputs }

// PSVars and NSVars return the state rails in latch order.
func (n *Network) PSVars() []*mdd.Var { return n.psVars }

// NSVars returns the next-state rail in latch order.
func (n *Network) NSVars() []*mdd.Var { return n.nsVars }

// PSBits returns the BDD variable IDs of the present-state rail.
func (n *Network) PSBits() []int { return n.psBits }

// NSBits returns the BDD variable IDs of the next-state rail.
func (n *Network) NSBits() []int { return n.nsBits }

// PSCube returns the quantification cube of the present-state rail.
func (n *Network) PSCube() bdd.Ref { return n.mgr.Cube(n.psBits) }

// NSCube returns the quantification cube of the next-state rail.
func (n *Network) NSCube() bdd.Ref { return n.mgr.Cube(n.nsBits) }

// SwapRails exchanges PS and NS variables in f (an involution).
func (n *Network) SwapRails(f bdd.Ref) bdd.Ref { return n.mgr.Permute(f, n.perm) }

// Conjuncts returns the partitioned transition relation: every table
// relation and auxiliary equality, with structural supports. Callers
// must not mutate the slice.
func (n *Network) Conjuncts() []quant.Conjunct { return n.conjuncts }

// NonStateBits returns the BDD variable IDs quantified out of T.
func (n *Network) NonStateBits() []int { return n.nonState }

// Heuristic returns the early-quantification heuristic in use.
func (n *Network) Heuristic() quant.Heuristic { return n.heur }

// VarByName resolves a model variable to its MDD variable, or nil.
func (n *Network) VarByName(name string) *mdd.Var { return n.space.ByName(name) }

// NumStates returns the number of states represented by a set over the
// present-state rail.
func (n *Network) NumStates(set bdd.Ref) float64 {
	return n.mgr.SatCount(set, len(n.psBits))
}

// NumStatesExact is NumStates without the float64 rounding: the exact
// math/big count of states in a set over the present-state rail.
func (n *Network) NumStatesExact(set bdd.Ref) *big.Int {
	return n.mgr.SatCountExact(set, len(n.psBits))
}

func (n *Network) isPSVar(v *mdd.Var) bool {
	for _, p := range n.psVars {
		if p == v {
			return true
		}
	}
	return false
}

// StateAssignment maps latch outputs to symbolic value names for one
// concrete state; used by trace printing.
type StateAssignment map[string]string

// DecodeState extracts the latch values of one concrete state from a
// full assignment over BDD variables.
func (n *Network) DecodeState(assignment map[int]bool) StateAssignment {
	out := make(StateAssignment, len(n.latches))
	for _, l := range n.latches {
		idx := l.PS.ValueFromMap(assignment)
		out[l.Src.Output] = n.model.Var(l.Src.Output).ValueName(idx)
	}
	return out
}

// PickState returns one concrete state from a non-empty set over the PS
// rail, as an assignment over the PS bits (unconstrained bits read 0).
func (n *Network) PickState(set bdd.Ref) (map[int]bool, bool) {
	return n.mgr.PickCube(set, n.psBits)
}

// StateEq returns the BDD of exactly the given concrete state.
func (n *Network) StateEq(assignment map[int]bool) bdd.Ref {
	r := bdd.True
	for _, b := range n.psBits {
		if assignment[b] {
			r = n.mgr.And(r, n.mgr.Var(b))
		} else {
			r = n.mgr.And(r, n.mgr.NVar(b))
		}
	}
	return r
}
