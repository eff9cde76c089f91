package lc

import (
	"math/rand"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/designs"
	"hsis/internal/network"
	"hsis/internal/reach"
	"hsis/internal/sys"
	"hsis/internal/verilog"
)

// randomPred returns a random disjunction of three-literal cubes over
// the given BDD variables.
func randomPred(m *bdd.Manager, r *rand.Rand, bits []int) bdd.Ref {
	f := bdd.False
	for term := 0; term < 3; term++ {
		cube := bdd.True
		for k := 0; k < 3; k++ {
			lit := m.Var(bits[r.Intn(len(bits))])
			if r.Intn(2) == 0 {
				lit = m.Not(lit)
			}
			cube = m.And(cube, lit)
		}
		f = m.Or(f, cube)
	}
	return f
}

// randomEdges returns a random edge predicate over both rails of s.
func randomEdges(s sys.System, r *rand.Rand) bdd.Ref {
	m := s.Manager()
	e := bdd.False
	for k := 0; k < 2; k++ {
		src := randomPred(m, r, s.StateBits())
		dst := s.SwapRails(randomPred(m, r, s.StateBits()))
		e = m.Or(e, m.And(src, dst))
	}
	return e
}

// checkVia compares PreVia, PostVia and EdgeSources of s against the
// same operators evaluated on the monolithic relation t, for random
// edge predicates and the given state sets.
func checkVia(t *testing.T, s sys.System, tr bdd.Ref, nsCube, psCube bdd.Ref, sets []bdd.Ref, r *rand.Rand) {
	t.Helper()
	m := s.Manager()
	for round := 0; round < 6; round++ {
		edges := randomEdges(s, r)
		if round == 0 {
			edges = bdd.True
		}
		for i, set := range sets {
			te := m.And(tr, edges)
			if got, want := s.PreVia(edges, set), m.AndExists(te, s.SwapRails(set), nsCube); got != want {
				t.Fatalf("round %d set %d: PreVia differs from the monolithic relation", round, i)
			}
			if got, want := s.PostVia(edges, set), s.SwapRails(m.AndExists(te, set, psCube)); got != want {
				t.Fatalf("round %d set %d: PostVia differs from the monolithic relation", round, i)
			}
			src := m.Exists(m.AndN(tr, edges, s.SwapRails(set)), nsCube)
			if got, want := s.EdgeSources(edges, set), m.And(src, set); got != want {
				t.Fatalf("round %d set %d: EdgeSources differs from the monolithic relation", round, i)
			}
		}
	}
}

// TestPlanReplayViaMatchesMonolithic checks the edge-restricted
// operators that replay image plans — NetSystem on the network's plan,
// and a Product compiled over the design's image clusters — against
// the same operators on the monolithic relation, on every
// bundled design plus philos-4 and scheduler-8.
func TestPlanReplayViaMatchesMonolithic(t *testing.T) {
	names := append(designs.Names(), "philos-4", "scheduler-8")
	for di, name := range names {
		di, name := di, name
		t.Run(name, func(t *testing.T) {
			d, err := designs.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			dsg, err := verilog.CompileString(d.Verilog, d.Name+".v", d.Top)
			if err != nil {
				t.Fatal(err)
			}
			flat, err := blifmv.Flatten(dsg)
			if err != nil {
				t.Fatal(err)
			}
			n, err := network.Build(flat, network.Options{SkipMonolithic: true})
			if err != nil {
				t.Fatal(err)
			}
			m := n.Manager()
			r := rand.New(rand.NewSource(int64(di + 1)))

			// The product must be compiled while T is unbuilt, so it
			// takes the plan path; T is built afterwards for reference.
			aut := &Automaton{Name: "probe", States: []string{"A", "B"}}
			g := randomPred(m, r, n.PSBits())
			aut.Edges = []Edge{{From: 0, To: 0, Guard: g}, {From: 0, To: 1, Guard: m.Not(g)},
				{From: 1, To: 1, Guard: bdd.True}, {From: 1, To: 0, Guard: g}}
			p := NewProduct(n, aut)
			if p.imgPlan == nil || n.TBuilt() {
				t.Fatal("product over an unbuilt T must compile plans")
			}
			// State sets: the initial states and the first reachability
			// rings, whole and cut by a random predicate. (Deep rings of
			// mdlc2 make the clustered replays cost seconds apiece.) Stop
			// sees the initial set, then the set after each step: the
			// run stops after three steps.
			steps := -1
			res := reach.Forward(n, reach.Options{KeepRings: true, Stop: func(bdd.Ref) bool {
				steps++
				return steps == 3
			}})
			sets := append([]bdd.Ref(nil), res.Rings...)
			for _, ring := range res.Rings[1:] {
				sets = append(sets, m.And(ring, randomPred(m, r, n.PSBits())))
			}
			for _, s := range sets {
				m.IncRef(s)
			}

			// Bound while T is unbuilt, the system replays the plan.
			s := sys.FromNetwork(n)
			n.EnsureT()
			checkVia(t, s, n.T, n.NSCube(), n.PSCube(), sets, r)

			pt := m.And(n.T, p.Delta)
			pNS := m.Cube(append(append([]int(nil), n.NSBits()...), p.ANS.Bits()...))
			pPS := m.Cube(p.StateBits())
			var psets []bdd.Ref
			for _, s := range sets {
				psets = append(psets, m.And(s, p.APS.Eq(r.Intn(2))))
			}
			psets = append(psets, p.Init(), randomPred(m, r, p.StateBits()))
			checkVia(t, p, pt, pNS, pPS, psets, r)
		})
	}
}
