package network

import (
	"bytes"
	"reflect"
	"testing"

	"hsis/internal/blifmv"
	"hsis/internal/order"
	"hsis/internal/reorder"
)

// A ternary state variable (two-bit group block) plus two binary
// latches that share their input, so the network invents auxiliary
// "$ns" rails — the order file must reproduce all of them.
const mixedRadix = `
.model mixed
.mv s,ns3 3 zero one two
.table s ns3
zero one
one two
two zero
.latch ns3 s
.reset s
zero
.table a b n
0 0 0
0 1 1
1 0 1
1 1 0
.latch n a
.reset a
0
.latch n b
.reset b
1
.end
`

// TestOrderFileRoundTrip is the golden round-trip for order
// persistence: sift a network, snapshot the order, save and reload it,
// rebuild the network from the saved order, and check that the rebuilt
// network lays its variables out exactly as recorded — including the
// multi-bit MDD variable and the auxiliary next-state rails.
func TestOrderFileRoundTrip(t *testing.T) {
	d, err := blifmv.ParseString(mixedRadix, "mixed.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reorder.Sift(n.Manager())

	entries := order.Snapshot(n.Space())
	if len(entries) != len(n.Space().Vars()) {
		t.Fatalf("snapshot has %d entries for %d variables", len(entries), len(n.Space().Vars()))
	}

	var buf bytes.Buffer
	if err := order.Save(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := order.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Fatalf("save/load round trip changed the order:\nsaved  %v\nloaded %v", entries, back)
	}

	names, err := order.Apply(flat, back)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := Build(flat, Options{Order: names, ExactOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := order.Snapshot(n2.Space())
	if !reflect.DeepEqual(rebuilt, entries) {
		t.Fatalf("rebuild from saved order diverged:\nwant %v\ngot  %v", entries, rebuilt)
	}

	// The multi-bit MDD variables must still occupy adjacent levels in
	// the rebuilt network.
	m2 := n2.Manager()
	for _, v := range n2.Space().Vars() {
		bits := v.Bits()
		if len(bits) < 2 {
			continue
		}
		levels := make([]int, len(bits))
		for i, b := range bits {
			levels[i] = m2.Level(b)
		}
		lo, hi := levels[0], levels[0]
		for _, l := range levels[1:] {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if hi-lo != len(bits)-1 {
			t.Errorf("variable %s: encoding bits at levels %v are not contiguous", v.Name(), levels)
		}
	}
}

// TestOrderFileStaleRejected checks that Apply refuses an order file
// whose cardinalities or names no longer match the model.
func TestOrderFileStaleRejected(t *testing.T) {
	d, err := blifmv.ParseString(mixedRadix, "mixed.mv")
	if err != nil {
		t.Fatal(err)
	}
	flat, err := blifmv.Flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := order.Apply(flat, []order.Entry{{Name: "s", Card: 4}}); err == nil {
		t.Error("cardinality mismatch not rejected")
	}
	if _, err := order.Apply(flat, []order.Entry{{Name: "ghost", Card: 2}}); err == nil {
		t.Error("unknown variable not rejected")
	}
	if _, err := order.Apply(flat, []order.Entry{{Name: "a", Card: 2}, {Name: "a", Card: 2}}); err == nil {
		t.Error("duplicate variable not rejected")
	}
}
