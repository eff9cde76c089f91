package network_test

// The iso engine merges the instantiated clusters across replicas
// before compiling its plans. These tests pin that the merged plans
// still compute exactly the monolithic relation's images, that the
// merge respects the cluster limit, and that it stays off where the
// replication does not pay (mdlc2).

import (
	"math/rand"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/blifmv"
	"hsis/internal/designs"
	"hsis/internal/network"
	"hsis/internal/quant"
	"hsis/internal/reach"
	"hsis/internal/reorder"
	"hsis/internal/verilog"
)

func buildDesign(t *testing.T, name string, opts network.Options) *network.Network {
	t.Helper()
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
	n, err := network.Build(flat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// randomCube conjoins k random literals over bits.
func randomCube(m *bdd.Manager, rng *rand.Rand, bits []int, k int) bdd.Ref {
	c := bdd.True
	for i := 0; i < k; i++ {
		v := m.Var(bits[rng.Intn(len(bits))])
		if rng.Intn(2) == 0 {
			v = m.Not(v)
		}
		c = m.And(c, v)
	}
	return c
}

func TestIsoMergedPlansExact(t *testing.T) {
	const limit = 200
	for _, name := range []string{"philos-4", "scheduler-8"} {
		t.Run(name, func(t *testing.T) {
			n := buildDesign(t, name, network.Options{ClusterLimit: limit})
			m := n.Manager()
			if !n.IsoWorthwhile() {
				t.Fatal("design should be worth the iso pipeline")
			}
			rng := rand.New(rand.NewSource(1))
			mono := reach.Engine(n, reach.EngineMonolithic)
			iso := reach.Engine(n, reach.EngineIso)
			reached := m.IncRef(reach.Forward(n, reach.Options{Engine: reach.EngineMonolithic}).Reached)
			// States: the reached set and random subsets of it. Edges:
			// random cubes over both rails.
			states := []bdd.Ref{reached}
			for i := 0; i < 6; i++ {
				states = append(states, m.IncRef(m.And(reached, randomCube(m, rng, n.PSBits(), 1+i%3))))
			}
			rails := append(append([]int(nil), n.PSBits()...), n.NSBits()...)
			var edges []bdd.Ref
			for i := 0; i < 4; i++ {
				edges = append(edges, m.IncRef(randomCube(m, rng, rails, 2)))
			}
			check := func(phase string) {
				for i, x := range states {
					if mono.Image(x) != iso.Image(x) {
						t.Fatalf("%s: image of set %d differs", phase, i)
					}
					if mono.Preimage(x) != iso.Preimage(x) {
						t.Fatalf("%s: preimage of set %d differs", phase, i)
					}
					for j, e := range edges {
						if mono.ImageVia(e, x) != iso.ImageVia(e, x) {
							t.Fatalf("%s: image of set %d via edges %d differs", phase, i, j)
						}
						if mono.PreimageVia(e, x) != iso.PreimageVia(e, x) {
							t.Fatalf("%s: preimage of set %d via edges %d differs", phase, i, j)
						}
					}
				}
				if s := n.IsoSummaryInfo(); !s.Planned || s.Clusters < 2 {
					t.Fatalf("%s: limit %d should leave several merged clusters, got %+v", phase, limit, s)
				}
				checkLimit(t, m, n.IsoInstantiatedClusters(), n.ImageClusters(), limit)
			}
			check("initial order")
			before := m.ReorderCount()
			reorder.Sift(m, reorder.Options{Converge: true})
			if m.ReorderCount() == before {
				t.Fatal("sift did not open a new reorder epoch")
			}
			check("after sift")
		})
	}
}

// checkLimit asserts every merged cluster is within limit nodes unless
// it is a single instantiated cluster (with its merge-local variables
// quantified out), which the merge never splits.
func checkLimit(t *testing.T, m *bdd.Manager, inst, merged []quant.Conjunct, limit int) {
	t.Helper()
	for i, c := range merged {
		if m.NodeCount(c.F) <= limit {
			continue
		}
		single := false
		for _, p := range inst {
			if m.Exists(p.F, m.Cube(minus(p.Support, c.Support))) == c.F {
				single = true
				break
			}
		}
		if !single {
			t.Fatalf("merged cluster %d has %d nodes, over the limit %d", i, m.NodeCount(c.F), limit)
		}
	}
}

func minus(a, b []int) []int {
	in := make(map[int]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	var out []int
	for _, v := range a {
		if !in[v] {
			out = append(out, v)
		}
	}
	return out
}

// TestIsoMergeShortensRingPlans: at the default cluster limit the merge
// collapses scheduler-64's 128 per-cell clusters into at most two.
func TestIsoMergeShortensRingPlans(t *testing.T) {
	n := buildDesign(t, "scheduler-64", network.Options{SkipMonolithic: true})
	img, pre := n.IsoImagePlan(), n.IsoPreimagePlan()
	if len(img.Steps) > 2 || len(pre.Steps) > 2 {
		t.Fatalf("scheduler-64 plans: %d image, %d preimage steps; want at most 2",
			len(img.Steps), len(pre.Steps))
	}
	if s := n.IsoSummaryInfo(); s.Clusters != len(n.ImageClusters()) || s.ImageSteps != len(img.Steps) {
		t.Fatalf("summary %+v disagrees with the plans", s)
	}
}

// TestIsoMergeGated: mdlc2's three replicated pairs are below the
// IsoWorthwhile bar, so an explicit iso request replays the instantiated
// clusters unmerged (merging them makes its edge replays an order of
// magnitude slower).
func TestIsoMergeGated(t *testing.T) {
	n := buildDesign(t, "mdlc2", network.Options{SkipMonolithic: true})
	if !n.IsoAvailable() || n.IsoWorthwhile() {
		t.Fatalf("mdlc2: IsoAvailable %v, IsoWorthwhile %v; want true, false", n.IsoAvailable(), n.IsoWorthwhile())
	}
	n.IsoImagePlan()
	if got, want := n.IsoSummaryInfo().Clusters, len(n.IsoInstantiatedClusters()); got != want {
		t.Fatalf("mdlc2 iso plans replay %d clusters, want the %d instantiated ones", got, want)
	}
}
