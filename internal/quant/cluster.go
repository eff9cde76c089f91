package quant

// Conjunction clustering and precompiled quantification schedules
// (IWLS95 style): instead of re-deriving an early-quantification
// schedule on every image computation, the per-table conjuncts are
// greedily merged once into clusters bounded by a BDD-size threshold,
// and a linear multiply-and-quantify plan over those clusters is
// compiled once per direction (image/preimage). Image computation then
// becomes pure replay: one AndExists per cluster with a precomputed
// cube.

import (
	"sort"

	"hsis/internal/bdd"
	"hsis/internal/telemetry"
)

// DefaultClusterLimit bounds the BDD size of one merged cluster when the
// caller passes no explicit limit.
const DefaultClusterLimit = 5000

// Clusters greedily merges conjuncts into clusters whose BDDs stay under
// limit nodes (a single conjunct larger than limit stays a cluster of
// its own). The merge order is the consumption order of the Plan
// schedule over preQuantify (the variables every later quantification
// will eliminate regardless of direction — the non-state variables, for
// a transition relation). Any preQuantify variable whose occurrences all
// fall inside a single cluster is existentially quantified out of that
// cluster right here (unless that would grow a merged cluster past
// limit), so per-image replays never see it again.
func Clusters(m *bdd.Manager, conjuncts []Conjunct, preQuantify []int, limit int) []Conjunct {
	if limit <= 0 {
		limit = DefaultClusterLimit
	}
	if len(conjuncts) == 0 {
		return nil
	}
	order := mergeOrder(conjuncts, preQuantify)

	// Sweep the ordered conjuncts, conjoining while the product stays
	// under the size limit.
	type span struct {
		f          bdd.Ref
		start, end int // inclusive range of order positions
	}
	var spans []span
	cur := span{f: conjuncts[order[0]].F, start: 0, end: 0}
	for pos := 1; pos < len(order); pos++ {
		f := conjuncts[order[pos]].F
		merged := m.And(cur.f, f)
		if m.NodeCount(merged) > limit {
			spans = append(spans, cur)
			cur = span{f: f, start: pos, end: pos}
			continue
		}
		cur.f = merged
		cur.end = pos
	}
	spans = append(spans, cur)

	// First/last occurrence position of every preQuantify variable.
	qset := make(map[int]bool, len(preQuantify))
	for _, v := range preQuantify {
		qset[v] = true
	}
	first := map[int]int{}
	last := map[int]int{}
	for pos, ci := range order {
		for _, v := range conjuncts[ci].Support {
			if !qset[v] {
				continue
			}
			if _, ok := first[v]; !ok {
				first[v] = pos
			}
			last[v] = pos
		}
	}

	out := make([]Conjunct, 0, len(spans))
	for _, sp := range spans {
		sup := map[int]bool{}
		for pos := sp.start; pos <= sp.end; pos++ {
			for _, v := range conjuncts[order[pos]].Support {
				sup[v] = true
			}
		}
		// Variables local to this cluster can be eliminated now.
		var local []int
		for v := range sup {
			if qset[v] && first[v] >= sp.start && last[v] <= sp.end {
				local = append(local, v)
			}
		}
		sort.Ints(local)
		f := sp.f
		if len(local) > 0 {
			// Quantification can grow a BDD. A merged cluster that would
			// outgrow the limit keeps its local variables, and its plan
			// step quantifies them instead.
			q := m.Exists(f, m.Cube(local))
			if sp.end == sp.start || m.NodeCount(q) <= limit {
				f = q
				for _, v := range local {
					delete(sup, v)
				}
			}
		}
		support := make([]int, 0, len(sup))
		for v := range sup {
			support = append(support, v)
		}
		sort.Ints(support)
		out = append(out, Conjunct{F: f, Support: support})
	}
	return out
}

// mergeOrder derives a conjunct order from the Plan schedule: conjuncts
// appear in the order the schedule consumes them, so conjuncts sharing
// soon-to-die variables end up adjacent and merge into the same cluster.
func mergeOrder(conjuncts []Conjunct, quantify []int) []int {
	sched := Plan(conjuncts, quantify)
	order := make([]int, 0, len(conjuncts))
	seen := make([]bool, len(conjuncts))
	take := func(is []int) {
		for _, i := range is {
			if !seen[i] {
				seen[i] = true
				order = append(order, i)
			}
		}
	}
	for _, st := range sched.Steps {
		take(st.Inputs)
	}
	take(sched.Final.Inputs)
	for i := range conjuncts {
		if !seen[i] {
			order = append(order, i)
		}
	}
	return order
}

// CompiledStep is one replay step of a precompiled plan: conjoin F into
// the running product and existentially quantify Cube in the same pass.
type CompiledStep struct {
	F    bdd.Ref
	Cube bdd.Ref
}

// CompiledPlan is a frozen multiply-and-quantify schedule over clustered
// conjuncts. It is compiled once (per network, per direction) and
// replayed by every image/preimage call; replay performs no scheduling
// work and allocates nothing.
type CompiledPlan struct {
	Steps []CompiledStep
	// Tail quantifies variables that occur in the seed set only (it is
	// bdd.True when the plan has at least one step, since such variables
	// fold into the first step's cube).
	Tail bdd.Ref
}

// Compile orders the clusters greedily by an IWLS95-style benefit score
// (favouring clusters whose quantifiable support dies with them) and assigns
// every quantifiable variable to the step of its last occurrence. The
// seed — the state set a later Run conjoins first — is represented by
// its support alone.
func Compile(m *bdd.Manager, clusters []Conjunct, seedSupport []int, quantify []int) *CompiledPlan {
	plan := &CompiledPlan{Tail: bdd.True}
	qset := make(map[int]bool, len(quantify))
	for _, v := range quantify {
		qset[v] = true
	}
	// How many clusters mention each quantifiable variable.
	occ := map[int]int{}
	for _, c := range clusters {
		for _, v := range c.Support {
			if qset[v] {
				occ[v]++
			}
		}
	}
	running := map[int]bool{}
	for _, v := range seedSupport {
		running[v] = true
	}
	totalNonQuant := 0
	nonQuantSeen := map[int]bool{}
	for _, c := range clusters {
		for _, v := range c.Support {
			if !qset[v] && !nonQuantSeen[v] {
				nonQuantSeen[v] = true
				totalNonQuant++
			}
		}
	}
	remaining := make([]int, len(clusters))
	for i := range clusters {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		// IWLS95 benefit: favor clusters that quantify away a large
		// fraction of their own quantifiable support (vars with no later
		// occurrence die in this step's cube), penalize ones dragging in
		// many unquantifiable (next-rail) variables, and lightly penalize
		// widening the live product.
		best, bestScore := -1, -1e18
		for pos, ci := range remaining {
			var dying, quantSup, nonQuantSup, introduced int
			for _, v := range clusters[ci].Support {
				if !running[v] {
					introduced++
				}
				if qset[v] {
					quantSup++
					if occ[v] == 1 {
						dying++
					}
				} else {
					nonQuantSup++
				}
			}
			score := 0.0
			if quantSup > 0 {
				score += 6 * float64(dying) / float64(quantSup)
			}
			if totalNonQuant > 0 {
				score -= float64(nonQuantSup) / float64(totalNonQuant)
			}
			score -= float64(introduced) / float64(len(running)+introduced+1)
			if score > bestScore {
				best, bestScore = pos, score
			}
		}
		ci := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		for _, v := range clusters[ci].Support {
			running[v] = true
			if qset[v] {
				occ[v]--
			}
		}
		// Everything quantifiable with no future occurrence dies here.
		var dying []int
		for v := range running {
			if qset[v] && occ[v] == 0 {
				dying = append(dying, v)
			}
		}
		sort.Ints(dying)
		for _, v := range dying {
			delete(running, v)
			delete(occ, v)
		}
		plan.Steps = append(plan.Steps, CompiledStep{F: clusters[ci].F, Cube: m.Cube(dying)})
	}
	// Quantifiable variables in the seed that no cluster mentions.
	var leftover []int
	for v := range running {
		if qset[v] {
			leftover = append(leftover, v)
		}
	}
	sort.Ints(leftover)
	if len(leftover) > 0 {
		plan.Tail = m.Cube(leftover)
		if len(plan.Steps) > 0 {
			// Fold into the first step's cube; no separate pass needed.
			first := m.CubeVars(plan.Steps[0].Cube)
			plan.Steps[0].Cube = m.Cube(append(first, leftover...))
			plan.Tail = bdd.True
		}
	}
	return plan
}

// Run replays the plan: conjoin the seed with each step's cluster,
// quantifying that step's cube in the same AndExists pass.
func (p *CompiledPlan) Run(m *bdd.Manager, seed bdd.Ref) bdd.Ref {
	t := m.Telemetry()
	if t == nil {
		r := seed
		for _, st := range p.Steps {
			r = m.AndExists(r, st.F, st.Cube)
		}
		if p.Tail != bdd.True {
			r = m.Exists(r, p.Tail)
		}
		return r
	}
	traced := t.Traced()
	sp := t.Start("quant.image")
	r := seed
	for i, st := range p.Steps {
		csp := t.Start("quant.cluster")
		r = m.AndExists(r, st.F, st.Cube)
		if traced {
			csp.End(telemetry.Int("step", i+1),
				telemetry.Int("result_nodes", m.NodeCount(r)))
		} else {
			csp.End(telemetry.Int("step", i+1))
		}
	}
	if p.Tail != bdd.True {
		r = m.Exists(r, p.Tail)
	}
	if traced {
		sp.End(telemetry.Int("steps", len(p.Steps)),
			telemetry.Int("result_nodes", m.NodeCount(r)))
	} else {
		sp.End(telemetry.Int("steps", len(p.Steps)))
	}
	return r
}

// Retain IncRefs every BDD the plan holds so it survives garbage
// collections for the lifetime of its owner.
func (p *CompiledPlan) Retain(m *bdd.Manager) {
	for _, st := range p.Steps {
		m.IncRef(st.F)
		m.IncRef(st.Cube)
	}
	m.IncRef(p.Tail)
}

// Release drops the references Retain took, so a superseded plan (e.g.
// one recompiled after a reorder session) can be collected.
func (p *CompiledPlan) Release(m *bdd.Manager) {
	for _, st := range p.Steps {
		m.DecRef(st.F)
		m.DecRef(st.Cube)
	}
	m.DecRef(p.Tail)
}
