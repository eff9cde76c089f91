// Quickstart: compile a small Verilog design, state one CTL property
// and one ω-automaton property, verify both, and print the verdicts.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hsis/internal/core"
)

const design = `
// a request/grant handshake with a nondeterministic requester
module handshake(clk, req, gnt);
  input clk;
  output req, gnt;
  reg req, gnt;
  initial req = 0;
  always @(posedge clk)
    if (!req) req <= $ND(0, 1);   // the environment may raise a request
    else if (gnt) req <= 0;       // and drops it once granted
  initial gnt = 0;
  always @(posedge clk)
    gnt <= req && !gnt;           // one-cycle grant pulses
endmodule
`

const props = `
# the model checker proves: every request is eventually granted
ctl response AG(req=1 -> AF gnt=1)

# the language containment checker proves: grants are never two cycles long
automaton short_grants {
  states A G B
  init A
  edge A A gnt=0
  edge A G gnt=1
  edge G A gnt=0
  edge G B gnt=1
  edge B B TRUE
  rabin avoid { B } recur { A G }
}
`

func main() {
	w, err := core.LoadVerilogString(design, "handshake.v", "handshake", core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.AddPIFString(props, "handshake.pif"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design %s: %d latches, %s reachable states\n",
		w.Name, len(w.Net.Latches()), w.ReachableStatesExact())
	for _, r := range w.VerifyAll() {
		if r.Err != nil {
			log.Fatalf("%s: %v", r.Name, r.Err)
		}
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("%s  %-12s (%s) in %v\n", verdict, r.Name, r.Kind, r.Time)
		if !r.Pass {
			fmt.Print(w.BugReport(r))
		}
	}
}
