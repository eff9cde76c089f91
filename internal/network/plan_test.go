package network_test

// The network holds one cluster set and at most one compiled
// image/preimage plan pair, both under one reorder epoch. These tests
// pin that T is finished from the clusters without compiling plans,
// that the pair the engines replay is compiled from exactly
// ImageClusters(), and that a reorder session recompiles it once.

import (
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/network"
	"hsis/internal/quant"
	"hsis/internal/reach"
	"hsis/internal/reorder"
)

func TestTBuildCompilesNoPlans(t *testing.T) {
	n := buildDesign(t, "mdlc2", network.Options{SkipMonolithic: true})
	if n.IsoWorthwhile() {
		t.Fatal("mdlc2 should fall below the IsoWorthwhile bar")
	}
	n.EnsureT()
	if !n.TBuilt() {
		t.Fatal("EnsureT left T unbuilt")
	}
	if img, pre := n.Plans(); img != nil || pre != nil {
		t.Fatal("building T compiled an image plan pair nothing replays")
	}
	if n.IsoSummaryInfo().Planned {
		t.Fatal("IsoSummaryInfo reports a plan that was never compiled")
	}
}

// stepsReplay asserts the plan's steps conjoin exactly the clusters,
// each once.
func stepsReplay(t *testing.T, what string, p *quant.CompiledPlan, clusters []quant.Conjunct) {
	t.Helper()
	want := map[bdd.Ref]int{}
	for _, c := range clusters {
		want[c.F]++
	}
	for _, st := range p.Steps {
		want[st.F]--
	}
	for f, k := range want {
		if k != 0 {
			t.Fatalf("%s: cluster %v appears %d times more in ImageClusters than in the plan", what, f, k)
		}
	}
}

func TestOnePlanPairPerEpoch(t *testing.T) {
	n := buildDesign(t, "scheduler-8", network.Options{SkipMonolithic: true})
	m := n.Manager()
	if !n.IsoWorthwhile() {
		t.Fatal("scheduler-8 should be worth the iso-instantiated clusters")
	}
	want := reach.Forward(n, reach.Options{}).Reached
	img, pre := n.Plans()
	if img == nil || pre == nil {
		t.Fatal("a forward run on a network without T compiled no plan pair")
	}
	if img != n.ImagePlan() || pre != n.PreimagePlan() {
		t.Fatal("the plan accessors compiled a second pair")
	}
	stepsReplay(t, "image", img, n.ImageClusters())
	stepsReplay(t, "preimage", pre, n.ImageClusters())
	if s := n.IsoSummaryInfo(); !s.Planned || s.Clusters != len(n.ImageClusters()) || s.ImageSteps != len(img.Steps) {
		t.Fatalf("summary %+v disagrees with the plan pair", s)
	}

	m.IncRef(want)
	before := m.ReorderCount()
	reorder.Sift(m)
	if m.ReorderCount() == before {
		t.Fatal("sift did not open a new reorder epoch")
	}
	got := reach.Forward(n, reach.Options{}).Reached
	if got != want {
		t.Fatal("reached set changed across the sift")
	}
	img2, pre2 := n.Plans()
	if img2 == nil || img2 == img || pre2 == pre {
		t.Fatal("the sift did not recompile the plan pair")
	}
	reach.Forward(n, reach.Options{})
	if a, b := n.Plans(); a != img2 || b != pre2 || n.ImagePlan() != img2 || n.PreimagePlan() != pre2 {
		t.Fatal("the plan pair was recompiled twice in one epoch")
	}
	stepsReplay(t, "image after sift", img2, n.ImageClusters())
	stepsReplay(t, "preimage after sift", pre2, n.ImageClusters())
	m.DecRef(want)
}
