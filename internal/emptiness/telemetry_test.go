package emptiness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hsis/internal/bdd"
	"hsis/internal/fair"
	"hsis/internal/telemetry"
)

// TestEmptyHullSpansCarryNoNodeCounts drives each of FairStates' three
// empty-hull exits — no infinite path, an unreachable Büchi set, an
// unsatisfiable Streett pair — under a flight-recorder scope without a
// JSONL tracer. Node-count fields need a tracer, so no recorded event
// may carry one; with a tracer the empty hull reports z_nodes 0.
func TestEmptyHullSpansCarryNoNodeCounts(t *testing.T) {
	s := compile(t, counter4)
	m := s.Manager()
	sv := s.N.VarByName("s")
	buchi := &fair.Constraints{}
	buchi.AddPositiveStateSubset("never", bdd.False)
	streett := &fair.Constraints{}
	streett.AddStreett("starve", sv.Domain(), bdd.False)
	cases := []struct {
		name     string
		fc       *fair.Constraints
		restrict bdd.Ref
	}{
		{"no infinite path", nil, sv.Eq(1)},
		{"unreachable Büchi set", buchi, sv.Domain()},
		{"unsatisfiable Streett pair", streett, sv.Domain()},
	}
	for _, tc := range cases {
		rec := telemetry.NewRecorder()
		m.SetTelemetry(telemetry.NewScope(nil).WithRecorder(rec))
		if r := FairStates(s, tc.fc, tc.restrict); r.Fair != bdd.False {
			t.Fatalf("%s: hull should be empty", tc.name)
		}
		hulls := 0
		for _, line := range rec.Dump() {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad recorder line %q: %v", line, err)
			}
			if ev["ev"] == "emptiness.hull.iter" {
				hulls++
			}
			for k := range ev {
				if strings.HasSuffix(k, "_nodes") {
					t.Fatalf("%s: untraced scope recorded %s: %s", tc.name, k, line)
				}
			}
		}
		if hulls != 1 {
			t.Fatalf("%s: %d hull-iteration events, want 1", tc.name, hulls)
		}

		var buf bytes.Buffer
		tr := telemetry.New(&buf)
		m.SetTelemetry(telemetry.NewScope(tr))
		FairStates(s, tc.fc, tc.restrict)
		if err := tr.Flush(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"z_nodes":0`) {
			t.Fatalf("%s: traced empty hull should report z_nodes 0:\n%s", tc.name, buf.String())
		}
	}
	m.SetTelemetry(nil)
}
