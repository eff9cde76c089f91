// table1 regenerates the paper's Table 1 on the bundled designs: for
// each example it reports Verilog lines, generated BLIF-MV lines, the
// time to read the BLIF-MV and build the transition relation, the
// reachable state count, and the number and total check time of
// language-containment and CTL properties.
//
// Flags select engine ablations so the same harness also drives the
// ablation experiments of EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"
	"time"

	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/telemetry"
)

// row is one line of the regenerated table.
type row struct {
	Name         string
	VerilogLines int
	BlifmvLines  int
	ReadTime     time.Duration
	States       *big.Int
	LCProps      int
	LCTime       time.Duration
	CTLProps     int
	CTLTime      time.Duration
	Failed       []string // properties that (expectedly) fail
}

// measure runs the full Table-1 column set for one design.
func measure(name string, opts core.Options) (*row, error) {
	d, err := designs.Get(name)
	if err != nil {
		return nil, err
	}
	w, err := core.LoadVerilogString(d.Verilog, name+".v", d.Top, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := w.AddPIFString(d.PIF, name+".pif"); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	r := &row{
		Name:         name,
		VerilogLines: w.VerilogLines,
		BlifmvLines:  w.BlifmvLines,
		ReadTime:     w.ReadTime,
		States:       w.ReachableStatesExact(),
	}
	for _, a := range w.Automata {
		res := w.CheckLC(a)
		if res.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, res.Name, res.Err)
		}
		r.LCProps++
		r.LCTime += res.Time
		if !res.Pass {
			r.Failed = append(r.Failed, res.Name)
		}
	}
	for _, p := range w.CTLProps {
		res := w.CheckCTL(p)
		if res.Err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, res.Name, res.Err)
		}
		r.CTLProps++
		r.CTLTime += res.Time
		if !res.Pass {
			r.Failed = append(r.Failed, res.Name)
		}
	}
	return r, nil
}

// config is one table1 invocation: the workspace options every design
// is measured with, the shared trace/profile flags and the design
// filter.
type config struct {
	opts core.Options
	cli  *core.CLIFlags
	only string
}

// parseFlags parses the command line: the verification flags shared
// with hsis (core.BindFlags) plus the ablation switches of
// EXPERIMENTS.md.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	c := &config{}
	c.cli = core.BindFlags(fs, &c.opts)
	fs.StringVar(&c.only, "design", "", "run a single design")
	fs.BoolVar(&c.opts.AppendedOrder, "appended-order", false, "use the naive appended variable order (Ablation E)")
	fs.IntVar(&c.opts.EarlySteps, "early", 0, "early failure detection depth for LC (0 = off)")
	fs.BoolVar(&c.opts.DisableInvariantFastPath, "no-invariant-fastpath", false, "disable the AG(prop) fast path (Ablation B)")
	fs.BoolVar(&c.opts.ConeOfInfluence, "coi", false, "cone-of-influence abstraction per property (Ablation G)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "table1:", err)
		os.Exit(2)
	}
	if c.cli.Trace != "" {
		tr, err := telemetry.OpenTrace(c.cli.Trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		sc := telemetry.NewScope(tr)
		sc.StartSampler(0)
		telemetry.SetDefault(sc)
		defer func() {
			telemetry.SetDefault(nil)
			sc.StopSampler()
			fmt.Print(tr.Summary(""))
			if err := tr.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "table1:", err)
			}
		}()
	}
	if c.cli.Profile != "" {
		stop, err := telemetry.StartProfiling(c.cli.Profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "table1:", err)
			}
		}()
	}

	fmt.Printf("%-10s %8s %8s %12s %12s %5s %12s %5s %12s\n",
		"example", "#linesV", "#linesMV", "read(ms)", "#states", "#lc", "lc(ms)", "#ctl", "mc(ms)")
	names := designs.Names()
	if c.only != "" {
		// A single -design may also name a generated scaled instance
		// ("philos-64") outside the bundled Table-1 set.
		names = []string{c.only}
	}
	for _, name := range names {
		r, err := measure(name, c.opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "table1:", err)
			os.Exit(1)
		}
		note := ""
		if len(r.Failed) > 0 {
			note = "  (expected failures: " + strings.Join(r.Failed, ", ") + ")"
		}
		fmt.Printf("%-10s %8d %8d %12.2f %12s %5d %12.2f %5d %12.2f%s\n",
			r.Name, r.VerilogLines, r.BlifmvLines,
			ms(r.ReadTime), r.States,
			r.LCProps, ms(r.LCTime),
			r.CTLProps, ms(r.CTLTime), note)
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
