package network

// Isomorphism-exploiting image compilation: real designs are full of
// replicated components (philos' N philosophers, scheduler's cycler
// cells), and the clustered pipeline pays the full cluster-merge cost
// once per replica even though the replicas compute the same function
// of renamed variables. This file detects replicated latch cones
// structurally — a canonical traversal of each latch's next-state logic
// DAG, hashed with all signal names abstracted away — groups latches
// whose cones are isomorphic, compiles the cluster set once for a
// representative per class, and instantiates every other replica by BDD
// variable permutation (bdd.Permuter, near-free against a warm memo).
// One global quantification schedule is then compiled over all
// instantiated clusters plus the non-replicated remainder.
//
// Detection is purely structural and order-independent, so it is done
// once per network; the compiled plans are epoch-stamped like the
// clustered ones and re-derived after a reorder session. Candidate
// classes are verified semantically before use: a member is accepted
// only if permuting every owned conjunct of the representative yields
// exactly the member's conjunct, so a false structural match degrades
// to the shared pool rather than corrupting the image.

import (
	"fmt"
	"sort"
	"strings"

	"hsis/internal/blifmv"
	"hsis/internal/mdd"
	"hsis/internal/quant"
	"hsis/internal/telemetry"
)

// cone is the canonical traversal of one latch's next-state logic.
type cone struct {
	shape   string   // canonical serialization with names abstracted away
	signals []string // distinct signals in discovery order
	tables  []int    // model table indices in expansion order (positions)
}

// IsoClass is one equivalence class of two or more isomorphic latch
// cones: the representative's conjuncts are clustered once, the other
// members reuse the result through a variable permutation.
type IsoClass struct {
	// Latches lists the member latch indices, representative first.
	Latches []int
	// sigmas[k] maps the representative's BDD variables onto member k's
	// (sigmas[0] is nil — the representative is itself).
	sigmas [][]int
	// conjs[k] lists the conjunct indices owned by member k.
	conjs [][]int
	// local lists the representative's class-local non-state variables:
	// every occurrence is inside the representative's own conjuncts, so
	// clustering may pre-quantify them.
	local []int
}

// Members returns the number of replicas in the class.
func (c *IsoClass) Members() int { return len(c.Latches) }

// isoState caches detection results (immutable once computed) and the
// compiled iso pipeline (epoch-stamped, rebuilt after reorders).
type isoState struct {
	detected    bool
	classes     []*IsoClass
	shared      []int // conjunct indices owned by no class member
	sharedLocal []int

	built    bool
	epoch    int
	clusters []quant.Conjunct // every instantiated cluster; refs held
	imgPlan  *quant.CompiledPlan
	prePlan  *quant.CompiledPlan
}

// IsoSummary reports detection results for stats output.
type IsoSummary struct {
	Classes    int   // equivalence classes with ≥2 members
	Replicated int   // latches covered by those classes
	Sizes      []int // member count per class, largest first
}

// coneOf computes the canonical cone of latch li: breadth-first from
// the latch's next-state input, expanding through defining tables and
// stopping at present-state variables and primary inputs. The shape
// string abstracts signal names (only table structure, cardinalities,
// boundary kinds, and revisit positions remain), so isomorphic cones
// collide and nothing else should.
func (n *Network) coneOf(li int, drivenBy map[string][2]int, latchOf map[string]int, shapes []string) *cone {
	l := n.latches[li]
	c := &cone{}
	seen := map[string]int{}
	var sh strings.Builder
	queue := []string{l.Src.Input}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if idx, ok := seen[s]; ok {
			fmt.Fprintf(&sh, "ref:%d;", idx)
			continue
		}
		seen[s] = len(c.signals)
		c.signals = append(c.signals, s)
		if lj, ok := latchOf[s]; ok {
			self := 0
			if lj == li {
				self = 1
			}
			fmt.Fprintf(&sh, "ps:%d:%d;", self, n.model.Var(s).Card)
			continue
		}
		if d, ok := drivenBy[s]; ok {
			ti, oi := d[0], d[1]
			fmt.Fprintf(&sh, "tbl:%d:%s;", oi, shapes[ti])
			c.tables = append(c.tables, ti)
			queue = append(queue, n.model.Tables[ti].Inputs...)
			continue
		}
		fmt.Fprintf(&sh, "in:%d;", n.model.Var(s).Card)
	}
	c.shape = sh.String()
	return c
}

// tableShape serializes a table's structure with column names replaced
// by cardinalities and positions.
func tableShape(m *blifmv.Model, t *blifmv.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d>%d[", len(t.Inputs), len(t.Outputs))
	for _, in := range t.Inputs {
		fmt.Fprintf(&b, "%d,", m.Var(in).Card)
	}
	b.WriteString("][")
	for _, o := range t.Outputs {
		fmt.Fprintf(&b, "%d,", m.Var(o).Card)
	}
	b.WriteString("]")
	vs := func(s blifmv.ValueSet) {
		if s.All {
			b.WriteString("-")
			return
		}
		for _, v := range s.Vals {
			fmt.Fprintf(&b, "%d.", v)
		}
	}
	for _, r := range t.Rows {
		for _, in := range r.In {
			vs(in)
			b.WriteString(" ")
		}
		b.WriteString("|")
		for _, o := range r.Out {
			if o.EqInput >= 0 {
				fmt.Fprintf(&b, "=%d ", o.EqInput)
			} else {
				vs(o.Set)
				b.WriteString(" ")
			}
		}
		b.WriteString(";")
	}
	if t.Default != nil {
		b.WriteString("D:")
		for _, s := range t.Default {
			vs(s)
			b.WriteString(" ")
		}
	}
	return b.String()
}

// alignMember builds the variable permutation mapping the
// representative's cone onto a member's by positional alignment, then
// verifies it semantically: every cone table and latch-extra conjunct
// of the representative must permute to exactly the member's. Returns
// nil when the member is not a true replica.
func (n *Network) alignMember(cones []*cone, repLi, memLi int) []int {
	rep, mem := cones[repLi], cones[memLi]
	if len(rep.signals) != len(mem.signals) || len(rep.tables) != len(mem.tables) {
		return nil
	}
	if len(n.latchConj[repLi]) != len(n.latchConj[memLi]) {
		return nil
	}
	m := n.mgr
	sigma := make([]int, m.NumVars())
	for i := range sigma {
		sigma[i] = i
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	mapVar := func(a, b *mdd.Var) bool {
		ab, bb := a.Bits(), b.Bits()
		if len(ab) != len(bb) {
			return false
		}
		for i := range ab {
			if x, ok := fwd[ab[i]]; ok {
				if x != bb[i] {
					return false
				}
				continue
			}
			if y, ok := rev[bb[i]]; ok && y != ab[i] {
				return false
			}
			fwd[ab[i]] = bb[i]
			rev[bb[i]] = ab[i]
			sigma[ab[i]] = bb[i]
		}
		return true
	}
	for j := range rep.signals {
		av, bv := n.space.ByName(rep.signals[j]), n.space.ByName(mem.signals[j])
		if av == nil || bv == nil || !mapVar(av, bv) {
			return nil
		}
	}
	// The latch's own rails must map onto each other (the next-state
	// variable may be auxiliary and absent from the cone signals).
	rl, ml := n.latches[repLi], n.latches[memLi]
	if !mapVar(rl.PS, ml.PS) || !mapVar(rl.NS, ml.NS) {
		return nil
	}
	// Semantic gate: permuting each representative conjunct must yield
	// the member's counterpart node for node.
	for j := range rep.tables {
		rf := n.conjuncts[n.tableConj[rep.tables[j]]].F
		mf := n.conjuncts[n.tableConj[mem.tables[j]]].F
		if m.Permute(rf, sigma) != mf {
			return nil
		}
	}
	for j, rc := range n.latchConj[repLi] {
		mc := n.latchConj[memLi][j]
		if m.Permute(n.conjuncts[rc].F, sigma) != n.conjuncts[mc].F {
			return nil
		}
	}
	return sigma
}

// detectIso partitions the latches into isomorphism classes and the
// conjuncts into per-member sets plus a shared pool.
func (n *Network) detectIso() {
	st := n.iso
	st.detected = true

	drivenBy := map[string][2]int{}
	shapes := make([]string, len(n.model.Tables))
	for ti, t := range n.model.Tables {
		shapes[ti] = tableShape(n.model, t)
		for oi, o := range t.Outputs {
			drivenBy[o] = [2]int{ti, oi}
		}
	}
	latchOf := map[string]int{}
	for li, l := range n.latches {
		latchOf[l.Src.Output] = li
	}
	cones := make([]*cone, len(n.latches))
	for li := range n.latches {
		cones[li] = n.coneOf(li, drivenBy, latchOf, shapes)
	}

	// Group by shape, preserving latch order; verify each candidate
	// member against the group's first latch (the representative).
	byShape := map[string][]int{}
	var shapeOrder []string
	for li, c := range cones {
		if _, ok := byShape[c.shape]; !ok {
			shapeOrder = append(shapeOrder, c.shape)
		}
		byShape[c.shape] = append(byShape[c.shape], li)
	}
	for _, shape := range shapeOrder {
		group := byShape[shape]
		if len(group) < 2 {
			continue
		}
		cls := &IsoClass{Latches: []int{group[0]}, sigmas: [][]int{nil}}
		for _, li := range group[1:] {
			if sigma := n.alignMember(cones, group[0], li); sigma != nil {
				cls.Latches = append(cls.Latches, li)
				cls.sigmas = append(cls.sigmas, sigma)
			}
		}
		if len(cls.Latches) >= 2 {
			st.classes = append(st.classes, cls)
		}
	}

	// Claim pass: walk each class's cone positions; a position is kept
	// only when every member's table at it is still unclaimed and the
	// members' tables are pairwise distinct — cones overlap (a wire can
	// feed two latches), and dropping the position class-wide keeps the
	// per-member sets exact permutation images of each other. Dropped
	// tables fall to the shared pool unless another position claims them.
	type ownKey struct{ class, member int }
	var owners map[int]ownKey
	claim := func() {
		owners = make(map[int]ownKey, len(n.conjuncts))
		for ci, cls := range st.classes {
			cls.conjs = make([][]int, len(cls.Latches))
			npos := len(cones[cls.Latches[0]].tables)
			for pos := 0; pos < npos; pos++ {
				cjs := make([]int, len(cls.Latches))
				ok := true
				dup := map[int]bool{}
				for k, li := range cls.Latches {
					cj := n.tableConj[cones[li].tables[pos]]
					if _, claimed := owners[cj]; claimed || dup[cj] {
						ok = false
						break
					}
					dup[cj] = true
					cjs[k] = cj
				}
				if !ok {
					continue
				}
				for k, cj := range cjs {
					owners[cj] = ownKey{ci, k}
					cls.conjs[k] = append(cls.conjs[k], cj)
				}
			}
			// Latch extras (auxiliary equality, domain constraint) belong to
			// their latch unconditionally.
			for k, li := range cls.Latches {
				for _, cj := range n.latchConj[li] {
					owners[cj] = ownKey{ci, k}
					cls.conjs[k] = append(cls.conjs[k], cj)
				}
			}
		}
	}
	// A class is only instantiable by permutation if each member's sigma
	// is injective on the union of the representative's owned conjunct
	// supports: Permute distributes over the cluster ANDs exactly when no
	// two support variables collapse onto one. A colliding class is
	// demoted wholesale to the shared pool, and the claim pass re-runs
	// because its freed tables may belong to another class's cones.
	for {
		claim()
		drop := -1
	scan:
		for ci, cls := range st.classes {
			repVars := map[int]bool{}
			for _, cj := range cls.conjs[0] {
				for _, v := range n.conjuncts[cj].Support {
					repVars[v] = true
				}
			}
			for k := 1; k < len(cls.Latches); k++ {
				hit := map[int]int{}
				for v := range repVars {
					w := cls.sigmas[k][v]
					if u, ok := hit[w]; ok && u != v {
						drop = ci
						break scan
					}
					hit[w] = v
				}
			}
		}
		if drop < 0 {
			break
		}
		st.classes = append(st.classes[:drop], st.classes[drop+1:]...)
	}
	for cj := range n.conjuncts {
		if _, claimed := owners[cj]; !claimed {
			st.shared = append(st.shared, cj)
		}
	}

	// Locality: a non-state variable is class-local to a member when
	// every conjunct mentioning it is that member's, and the property
	// must mirror across the whole class for pre-quantification during
	// representative clustering to be sound for every replica.
	nonState := make(map[int]bool, len(n.nonState))
	for _, v := range n.nonState {
		nonState[v] = true
	}
	varOwners := map[int]map[ownKey]bool{}
	sharedKey := ownKey{-1, -1}
	for cj, c := range n.conjuncts {
		o, claimed := owners[cj]
		if !claimed {
			o = sharedKey
		}
		for _, v := range c.Support {
			if varOwners[v] == nil {
				varOwners[v] = map[ownKey]bool{}
			}
			varOwners[v][o] = true
		}
	}
	soleOwner := func(v int, o ownKey) bool {
		os := varOwners[v]
		return len(os) == 1 && os[o]
	}
	for ci, cls := range st.classes {
		for _, cj := range cls.conjs[0] {
			for _, v := range n.conjuncts[cj].Support {
				if !nonState[v] || !soleOwner(v, ownKey{ci, 0}) {
					continue
				}
				mirrored := true
				for k := 1; k < len(cls.Latches); k++ {
					if !soleOwner(cls.sigmas[k][v], ownKey{ci, k}) {
						mirrored = false
						break
					}
				}
				if mirrored {
					cls.local = append(cls.local, v)
				}
			}
		}
		sort.Ints(cls.local)
		cls.local = dedupInts(cls.local)
	}
	for _, cj := range st.shared {
		for _, v := range n.conjuncts[cj].Support {
			if nonState[v] && soleOwner(v, sharedKey) {
				st.sharedLocal = append(st.sharedLocal, v)
			}
		}
	}
	sort.Ints(st.sharedLocal)
	st.sharedLocal = dedupInts(st.sharedLocal)

	if t := n.Manager().Telemetry(); t != nil {
		repl := 0
		for _, cls := range st.classes {
			repl += len(cls.Latches)
		}
		t.Emit("network.iso.detect",
			telemetry.Int("classes", len(st.classes)),
			telemetry.Int("replicated_latches", repl),
			telemetry.Int("latches", len(n.latches)),
			telemetry.Int("shared_conjuncts", len(st.shared)))
	}
}

// ensureIsoDetect runs detection once; cheap relative to any image work
// (one model traversal plus small verification permutes per candidate).
func (n *Network) ensureIsoDetect() *isoState {
	if n.iso == nil {
		n.iso = &isoState{}
	}
	if !n.iso.detected {
		n.detectIso()
	}
	return n.iso
}

// ensureIsoPlans compiles (or, after a reorder session, recompiles) the
// iso pipeline: per class, cluster the representative's conjuncts once
// and instantiate every replica by permutation; cluster the shared pool
// normally; then compile one global quantification schedule per
// direction over all instantiated clusters.
func (n *Network) ensureIsoPlans() *isoState {
	if n.iso == nil {
		n.iso = &isoState{}
	}
	st := n.iso
	if !st.detected {
		n.detectIso()
	}
	if len(st.classes) == 0 {
		return st
	}
	m := n.mgr
	epoch := m.ReorderCount()
	if st.built && st.epoch == epoch {
		return st
	}
	if st.built {
		st.imgPlan.Release(m)
		st.prePlan.Release(m)
		for _, c := range st.clusters {
			m.DecRef(c.F)
		}
		st.clusters = nil
	}
	t := m.Telemetry()
	var all []quant.Conjunct
	for ci, cls := range st.classes {
		var sp telemetry.Span
		if t != nil {
			sp = t.Start("network.iso.class")
		}
		permBefore := m.Stats().PermCalls
		repConjs := make([]quant.Conjunct, 0, len(cls.conjs[0]))
		for _, cj := range cls.conjs[0] {
			repConjs = append(repConjs, n.conjuncts[cj])
		}
		repClusters := quant.Clusters(m, repConjs, cls.local, n.clusterLimit)
		all = append(all, repClusters...)
		for k := 1; k < len(cls.Latches); k++ {
			p := m.NewPermuter(cls.sigmas[k])
			for _, c := range repClusters {
				all = append(all, quant.Conjunct{
					F:       p.Permute(c.F),
					Support: mapSupport(c.Support, cls.sigmas[k]),
				})
			}
		}
		if t != nil {
			sp.End(telemetry.Int("class", ci),
				telemetry.Int("members", len(cls.Latches)),
				telemetry.Int("rep_clusters", len(repClusters)),
				telemetry.I64("perm_calls", int64(m.Stats().PermCalls-permBefore)))
		}
	}
	if len(st.shared) > 0 {
		sharedConjs := make([]quant.Conjunct, 0, len(st.shared))
		for _, cj := range st.shared {
			sharedConjs = append(sharedConjs, n.conjuncts[cj])
		}
		all = append(all, quant.Clusters(m, sharedConjs, st.sharedLocal, n.clusterLimit)...)
	}
	for _, c := range all {
		m.IncRef(c.F)
	}
	imgQ := append(append([]int(nil), n.nonState...), n.psBits...)
	preQ := append(append([]int(nil), n.nonState...), n.nsBits...)
	st.imgPlan = quant.Compile(m, all, n.psBits, imgQ)
	st.prePlan = quant.Compile(m, all, n.nsBits, preQ)
	st.imgPlan.Retain(m)
	st.prePlan.Retain(m)
	st.clusters = all
	st.built = true
	st.epoch = epoch
	return st
}

func mapSupport(sup, sigma []int) []int {
	out := make([]int, len(sup))
	for i, v := range sup {
		out[i] = sigma[v]
	}
	sort.Ints(out)
	return out
}

// IsoAvailable reports whether the network has at least one class of
// two or more isomorphic latch cones (running detection on first call).
func (n *Network) IsoAvailable() bool {
	return len(n.ensureIsoDetect().classes) > 0
}

// IsoWorthwhile reports whether the iso pipeline is likely to beat the
// plain clustered one: each class saves members−1 cluster compilations,
// but splitting the conjuncts into per-member sets also constrains the
// cluster merge, so a design with only a couple of replicated pairs
// (mdlc2: three classes of two) pays more in worse clusters than it
// saves in compiles. Auto-selection demands a few compiles actually
// saved; an explicit EngineIso request overrides this.
func (n *Network) IsoWorthwhile() bool {
	saved := 0
	for _, cls := range n.ensureIsoDetect().classes {
		saved += len(cls.Latches) - 1
	}
	return saved >= 4
}

// IsoImagePlan returns the isomorphism-compiled image schedule, or nil
// when the network has no replication to exploit.
func (n *Network) IsoImagePlan() *quant.CompiledPlan {
	return n.ensureIsoPlans().imgPlan
}

// IsoPreimagePlan is the preimage counterpart of IsoImagePlan.
func (n *Network) IsoPreimagePlan() *quant.CompiledPlan {
	return n.ensureIsoPlans().prePlan
}

// ImageClusters returns the clustered partitioned transition relation
// the default image engine replays: the iso-instantiated clusters when
// IsoWorthwhile, the plain clusters (ClusterConjuncts) otherwise. On a
// replicated design this is far cheaper to compile than plain
// clustering, which merges every replica's conjuncts from scratch.
// The same caveats as ClusterConjuncts apply.
func (n *Network) ImageClusters() []quant.Conjunct {
	if n.IsoWorthwhile() {
		return n.ensureIsoPlans().clusters
	}
	return n.ClusterConjuncts()
}

// IsoSummaryInfo reports detection results (classes sorted largest
// first) for stats and CLI output.
func (n *Network) IsoSummaryInfo() IsoSummary {
	st := n.ensureIsoDetect()
	s := IsoSummary{Classes: len(st.classes)}
	for _, cls := range st.classes {
		s.Replicated += len(cls.Latches)
		s.Sizes = append(s.Sizes, len(cls.Latches))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(s.Sizes)))
	return s
}

// IsoClasses returns the detected equivalence classes (read-only).
func (n *Network) IsoClasses() []*IsoClass {
	return n.ensureIsoDetect().classes
}
