package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"hsis/internal/core"
	"hsis/internal/designs"
	"hsis/internal/server"
)

// The hsisd workload drives in-process server.New servers (default
// config: job workers sized from the CPU count, sequential kernel per
// job) through cycles of two phases: an open loop of evenly spaced,
// seed-jittered arrivals from two tenants at a fixed rate, then a closed
// loop in which 2×workers clients each submit their next job as soon as
// the previous one is done, so the queue holds at least as many jobs as
// there are job workers.

// openLoopRate is the open-loop arrival rate in jobs per second, about
// 30% of the closed-loop capacity measured at the commit that added the
// benchmark on a 2-CPU host (see NOTES.md). It is fixed, not derived
// from the run, so a faster or slower server sees the same offered load.
// At 60% the median latency sat where queued and unqueued jobs meet and
// moved by a fifth between runs of one seed.
const openLoopRate = 4

// nominalRoundS is the closed-loop round time, in seconds, at the commit
// that added the benchmark (20 jobs at about 13 jobs/s). It only sizes
// a run's fixed number of cycles from --seconds.
const nominalRoundS = 1.5

// roundMix is the fixed composition of one round of jobs; the seed
// shuffles the order of the light jobs and the tenants. Two are heavy,
// three are cache misses, the rest are light built-in designs that hit
// the artifact cache after the warm-up. Fixing the composition keeps the
// work per round the same for every seed.
var roundMix = []string{
	"mdlc2", "miss:scaled", "scheduler", "miss:scaled",
	"miss:bundled",
	"philos", "philos", "philos", "philos", "philos",
	"dcnew", "dcnew", "dcnew", "dcnew", "dcnew",
	"gigamax", "gigamax", "gigamax",
	"pingpong", "pingpong",
}

var (
	// warmDesigns are the built-in designs the rounds ask for by name;
	// the warm-up puts each into the artifact cache.
	warmDesigns = []string{"mdlc2", "scheduler", "philos", "dcnew", "gigamax", "pingpong"}
	// missBundled and smallScaled are the designs cache-miss jobs send as
	// Verilog text with a unique comment, rotating per round.
	missBundled = []string{"philos", "dcnew", "gigamax", "pingpong"}
	smallScaled = []string{"philos-3", "philos-4", "philos-5", "scheduler-4", "scheduler-5", "scheduler-6"}
)

// jobSpec is one generated job and the oracle row its answer must match.
type jobSpec struct {
	key    string
	heavy  bool
	spaced bool // heavy or a scaled cache miss: given a fixed slot in the round
	req    server.Request
}

// mixGen deals seeded rounds of roundMix jobs.
type mixGen struct {
	rng     *rand.Rand
	seed    int64
	n       int // jobs dealt, numbering the miss comments
	round   int
	pending []jobSpec
	src     map[string]*designs.Design
}

func newMixGen(seed int64) (*mixGen, error) {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), seed: seed, src: map[string]*designs.Design{}}
	for _, n := range append(append([]string(nil), warmDesigns...), smallScaled...) {
		d, err := designs.Get(n)
		if err != nil {
			return nil, err
		}
		g.src[n] = d
	}
	return g, nil
}

// nextRound deals one round: the spaced jobs at fixed slots, the rest in
// seed-shuffled order.
func (g *mixGen) nextRound() []jobSpec {
	specs := make([]jobSpec, 0, len(roundMix))
	scaled := 0
	for _, entry := range roundMix {
		g.n++
		tenant := "alpha"
		if g.rng.Intn(3) == 0 {
			tenant = "beta"
		}
		opts := server.JobOptions{Reach: true}
		var name string
		switch entry {
		case "miss:scaled":
			name = smallScaled[(2*g.round+scaled)%len(smallScaled)]
			scaled++
		case "miss:bundled":
			name = missBundled[g.round%len(missBundled)]
		default:
			heavy := entry == "mdlc2" || entry == "scheduler"
			specs = append(specs, jobSpec{key: entry, heavy: heavy, spaced: heavy,
				req: server.Request{Tenant: tenant, Builtin: entry, Options: opts}})
			continue
		}
		d := g.src[name]
		src := fmt.Sprintf("%s\n// hsisbench seed %d job %d\n", d.Verilog, g.seed, g.n)
		specs = append(specs, jobSpec{key: name, spaced: entry == "miss:scaled",
			req: server.Request{Tenant: tenant, Verilog: src, Top: d.Top, PIF: d.PIF, Options: opts}})
	}
	g.round++
	return g.interleave(specs)
}

// interleave puts the spaced jobs, in roundMix order, at evenly spaced
// slots and the seed-shuffled rest between them, so the long jobs of an
// open loop arrive at the same points of every round whatever the seed.
func (g *mixGen) interleave(specs []jobSpec) []jobSpec {
	var spaced, rest []jobSpec
	for _, s := range specs {
		if s.spaced {
			spaced = append(spaced, s)
		} else {
			rest = append(rest, s)
		}
	}
	g.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := make([]jobSpec, 0, len(specs))
	every := len(specs) / max(len(spaced), 1)
	for len(spaced) > 0 || len(rest) > 0 {
		if len(spaced) > 0 && len(out)%every == 0 {
			out, spaced = append(out, spaced[0]), spaced[1:]
		} else if len(rest) > 0 {
			out, rest = append(out, rest[0]), rest[1:]
		} else {
			out, spaced = append(out, spaced[0]), spaced[1:]
		}
	}
	return out
}

// next deals the next job of the current round.
func (g *mixGen) next() jobSpec {
	if len(g.pending) == 0 {
		g.pending = g.nextRound()
	}
	spec := g.pending[0]
	g.pending = g.pending[1:]
	return spec
}

// jobObs is one job's client-side observation.
type jobObs struct {
	latency   time.Duration // scheduled send (open loop) or submit (closed loop) to Done
	queueWait time.Duration // submit-to-Done minus the server's reported execution time
	exec      time.Duration
	cacheHit  bool
	failed    bool
	rejected  bool
}

// submitAndWait submits spec at its due time and waits for the job,
// judging the answer against the oracle.
func submitAndWait(s *server.Server, spec jobSpec, due time.Time, oracle map[string]*expected) jobObs {
	submitted := time.Now()
	j, err := s.Submit(spec.req)
	if err != nil {
		logf("FAIL job %s: submit: %v", spec.key, err)
		return jobObs{failed: true, rejected: errors.Is(err, server.ErrQueueFull)}
	}
	<-j.Done()
	done := time.Now()
	o := jobObs{latency: done.Sub(due)}
	res, msg := j.Result()
	if j.Status() != server.StatusDone || res == nil {
		logf("FAIL job %s (%s): %s %s", j.ID, spec.key, j.Status(), msg)
		o.failed = true
		return o
	}
	o.exec = time.Duration(res.ElapsedMS) * time.Millisecond
	o.queueWait = done.Sub(submitted) - o.exec
	o.cacheHit = res.CacheHit
	if why := judgeJob(spec.key, oracle, res); why != "" {
		logf("FAIL job %s (%s): %s", j.ID, spec.key, why)
		o.failed = true
	}
	return o
}

// judgeJob compares a job result with the oracle row.
func judgeJob(key string, oracle map[string]*expected, res *server.Result) string {
	got := make([]verdict, len(res.Properties))
	for i, p := range res.Properties {
		if p.Error != "" {
			return p.Name + ": " + p.Error
		}
		got[i] = verdict{Name: p.Name, Pass: p.Pass}
	}
	return check(oracle, key, res.ReachedStates, got)
}

// spoolDir keeps the server's per-job trace spool inside the checkout's
// build directory rather than the system temporary directory.
const spoolDir = ".bench_build/spool"

// startServer builds a server with the default config (its trace spool
// under spoolDir) and waits for one warm-up job per built-in design,
// so the light designs are artifact-cache hits from then on. The warm-up
// observations are returned for failure accounting.
func startServer(oracle map[string]*expected) (*server.Server, []jobObs, error) {
	s, err := server.New(server.Config{SpoolDir: spoolDir})
	if err != nil {
		return nil, nil, err
	}
	obs := make([]jobObs, len(warmDesigns))
	var wg sync.WaitGroup
	for i, n := range warmDesigns {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			spec := jobSpec{key: n, req: server.Request{Tenant: "alpha", Builtin: n, Options: server.JobOptions{Reach: true}}}
			obs[i] = submitAndWait(s, spec, time.Now(), oracle)
		}(i, n)
	}
	wg.Wait()
	return s, obs, nil
}

// openLoop submits n arrivals at openLoopRate, evenly spaced with a
// seeded jitter of up to a quarter gap either way, and returns every
// job's observation plus how late each submission was. Even spacing
// rather than Poisson gaps keeps the offered load the same from seed to
// seed, so latency differences between runs come from the server.
func openLoop(s *server.Server, g *mixGen, n int, oracle map[string]*expected) (obs []jobObs, lag []time.Duration) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	gap := time.Second * 1000 / time.Duration(openLoopRate*1000)
	start := time.Now()
	for i := 0; i < n; i++ {
		jitter := time.Duration((g.rng.Float64() - 0.5) / 2 * float64(gap))
		due := start.Add(time.Duration(i)*gap + jitter)
		spec := g.next()
		time.Sleep(time.Until(due))
		lag = append(lag, time.Since(due))
		wg.Add(1)
		go func(spec jobSpec, due time.Time) {
			defer wg.Done()
			o := submitAndWait(s, spec, due, oracle)
			mu.Lock()
			obs = append(obs, o)
			mu.Unlock()
		}(spec, due)
	}
	wg.Wait()
	return obs, lag
}

// closedRound runs one round through `clients` closed-loop clients,
// heavy jobs first so the round's wall time measures throughput rather
// than where in the round the heavy jobs fell. It returns the wall time
// and the observations.
func closedRound(s *server.Server, g *mixGen, clients int, oracle map[string]*expected) (time.Duration, []jobObs) {
	round := g.nextRound()
	sort.SliceStable(round, func(i, j int) bool { return round[i].heavy && !round[j].heavy })
	specs := make(chan jobSpec)
	obs := make([]jobObs, 0, len(round))
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range specs {
				o := submitAndWait(s, spec, time.Now(), oracle)
				mu.Lock()
				obs = append(obs, o)
				mu.Unlock()
			}
		}()
	}
	for _, spec := range round {
		specs <- spec
	}
	close(specs)
	wg.Wait()
	return time.Since(start), obs
}

// hsisdRun is the outcome of the timed part of one hsisd run.
type hsisdRun struct {
	open    []jobObs
	lag     []time.Duration
	rounds  []time.Duration
	closed  []jobObs
	workers int
}

// closedPerCycle is the number of closed-loop rounds in one cycle.
const closedPerCycle = 2

// nominalCycleS is one cycle's measured time, in seconds, at the commit
// that added the benchmark: an open-loop round at openLoopRate and
// closedPerCycle closed-loop rounds at nominalRoundS. It only sizes a
// run's fixed number of cycles from --seconds.
func nominalCycleS() float64 {
	return float64(len(roundMix))/openLoopRate + closedPerCycle*nominalRoundS
}

// runHsisd runs a fixed number of cycles: as many as fill d at
// nominalCycleS, at least two. A cycle sets up a fresh server, sends it
// one round as an open loop, then runs closedPerCycle rounds through it
// as a closed loop, and closes it. Every run therefore serves the same
// jobs, and the samples of both phases are spread over the whole run
// rather than over one part of it, so a slow spell of the host moves
// both phases' medians alike. The server keeps every finished job's
// workspace for its lifetime (see NOTES.md); a server per cycle keeps
// the heap, and peak memory, at one cycle's worth whatever the run's
// length. setup is called once per cycle, and first as many more times
// as it takes to make hsisdSetups calls, closing those servers at once.
func runHsisd(setup func() (*server.Server, error), g *mixGen, d time.Duration, oracle map[string]*expected) (hsisdRun, error) {
	var r hsisdRun
	cycles := max(2, int(math.Round(d.Seconds()/nominalCycleS())))
	for i := cycles; i < hsisdSetups; i++ {
		s, err := setup()
		if err != nil {
			return r, err
		}
		s.Close()
	}
	for c := 0; c < cycles; c++ {
		// The previous cycle's server is garbage now; collect it outside
		// the timed set-up and phases.
		runtime.GC()
		s, err := setup()
		if err != nil {
			return r, err
		}
		r.workers = s.Metrics().Workers
		open, lag := openLoop(s, g, len(roundMix), oracle)
		r.open = append(r.open, open...)
		r.lag = append(r.lag, lag...)
		for i := 0; i < closedPerCycle; i++ {
			wall, obs := closedRound(s, g, 2*r.workers, oracle)
			r.rounds = append(r.rounds, wall)
			r.closed = append(r.closed, obs...)
		}
		s.Close()
	}
	return r, nil
}

// missMS is the latency a failed or refused job is counted with: the
// server's default job deadline, so it misses any latency limit.
const missMS = 5 * 60 * 1000

// jobLatencies returns open-loop latencies in milliseconds, failed or
// refused jobs counted as missMS.
func jobLatencies(obs []jobObs) []float64 {
	out := make([]float64, 0, len(obs))
	for _, o := range obs {
		if o.failed {
			out = append(out, missMS)
			continue
		}
		out = append(out, ms(o.latency))
	}
	return out
}

// hsisdMixInputs lists the distinct designs of the hsisd mix as CLI
// inputs with the server's per-job options (sequential kernel), for the
// traced run's direct per-layer pass.
func hsisdMixInputs() ([]input, error) {
	var ins []input
	for _, n := range append(append([]string(nil), warmDesigns...), smallScaled...) {
		in, err := design(n, core.Options{})
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}
