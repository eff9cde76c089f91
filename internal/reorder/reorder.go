// Package reorder implements dynamic variable reordering for the BDD
// kernel: Rudell-style sifting generalized to atomic variable blocks so
// MDD log-encoded bit groups and interleaved present/next-state pairs
// move as units, accelerated by the three classic prunings from the
// CUDD lineage. The interaction matrix (built by the kernel at
// StartReorder) turns swaps across non-interacting variable pairs into
// pure relabels and lets a whole span of unrelated blocks be crossed
// without size checks; and a lower-bound estimate aborts a sift
// direction as soon as no remaining position can beat the best size
// seen. The kernel half
// — the in-place adjacent-level swap that keeps protected Refs valid —
// lives in internal/bdd; this package is the search strategy on top.
//
// Sift follows the GC protection contract: every Ref the caller needs
// afterwards must be protected by IncRef, directly or transitively.
// Protected functions are preserved exactly (same Ref, same function);
// unprotected nodes may be reclaimed.
package reorder

import (
	"sort"

	"hsis/internal/bdd"
	"hsis/internal/telemetry"
)

// Options tunes one sifting run.
type Options struct {
	// MaxGrowth bounds how far the node count may rise above the best
	// size seen while one block is in motion before the move aborts in
	// that direction (Rudell's maxGrowth; default 1.2).
	MaxGrowth float64
	// Converge repeats whole sifting passes until one fails to shrink
	// the manager, bounded by MaxPasses.
	Converge bool
	// MaxPasses caps converging passes (default 4).
	MaxPasses int

	// Ablation switches: each disables one acceleration independently
	// (the -reorder-accel CLI flag and the EXPERIMENTS.md ablation use
	// them). All false — everything enabled — is the default.
	NoInteraction bool // full-cost swaps and no span skipping
	NoLowerBound  bool // abort only on growth, never on the bound
}

// Result reports one sifting run.
type Result struct {
	Before, After    int // live nodes entering/leaving the run
	Swaps            int // adjacent-level swaps performed
	Passes           int // sifting passes completed
	InteractionSkips int // swaps taken as pure relabels (non-interacting pair)
	LowerBoundAborts int // sift directions cut short by the lower bound
}

// block is a run of adjacent levels that moves as a unit.
type block struct {
	id    int // identity, stable across moves
	level int // topmost level currently occupied
	width int // number of levels
}

// siftState is the mutable per-run state: the block sequence and the
// id→position index swapBlocks keeps current, so the per-block loop
// finds a block in O(1) instead of scanning.
type siftState struct {
	blocks []block
	posOf  []int
}

// Sift reorders the manager's variables by block sifting: each block in
// turn is bubbled through the order and settled at the position
// minimizing the live node count. A GC runs first so sifting measures
// (and moves) only what the protected roots reach.
func Sift(m *bdd.Manager, opts Options) Result {
	growth := opts.MaxGrowth
	if growth <= 1 {
		growth = 1.2
	}
	passes := opts.MaxPasses
	if passes <= 0 {
		passes = 4
	}
	if !opts.Converge {
		passes = 1
	}
	m.GC()
	res := Result{Before: m.Size(), After: m.Size()}
	blocks := materializeBlocks(m)
	if len(blocks) < 2 {
		return res
	}
	s := m.StartReorder()
	if opts.NoInteraction {
		s.SetInteractionFastPath(false)
	}
	st := &siftState{blocks: blocks, posOf: make([]int, len(blocks))}
	for i := range blocks {
		st.posOf[i] = i
	}
	for p := 0; p < passes; p++ {
		startSize := m.Size()
		for _, id := range blockOrder(s, st.blocks) {
			siftBlock(m, s, st, st.posOf[id], growth, opts)
		}
		res.Passes++
		if m.Size() >= startSize {
			break
		}
	}
	res.After = m.Size()
	res.Swaps = s.Swaps()
	res.InteractionSkips = s.InteractionSkips()
	res.LowerBoundAborts = s.LowerBoundAborts()
	s.Close()
	return res
}

// EnableAuto arms growth-triggered sifting on m: when live nodes exceed
// grow times the count at the last (re-)arming — at least minNodes —
// the next kernel safe point (Manager.MaybeReorder, called between
// fixpoint iterations, or MaybeGC) runs Sift with the given options and
// re-arms the trigger. grow <= 1 selects 2x, minNodes <= 0 selects 4096.
//
// The hook carries a back-off policy: a pass that shrinks the manager
// by less than 10% raises the effective growth trigger by a quarter
// (up to 2x the configured factor), so a near-converged run stops
// paying for full passes that buy little; a productive pass resets the
// trigger. The raise is gentle on purpose — near-converged passes
// often still shave a few percent each, and with the accelerated
// sifter a pass costs milliseconds, so the policy only has to damp the
// long tail, not amputate it (on mdlc2 the gentle raise keeps the
// final node count within a few percent of unlimited re-sifting while
// skipping the late no-op passes). The adjustment lands before
// MaybeReorder re-arms, so it takes effect immediately.
func EnableAuto(m *bdd.Manager, grow float64, minNodes int, opts Options) {
	if grow <= 1 {
		grow = 2
	}
	if minNodes <= 0 {
		minNodes = 1 << 12
	}
	cur := grow
	m.SetAutoReorder(grow, minNodes, func(m *bdd.Manager) {
		res := Sift(m, opts)
		if res.After*10 > res.Before*9 { // shrank < 10%: unproductive
			if cur < 2*grow {
				cur *= 1.25
				m.SetReorderGrowth(cur)
			}
		} else if cur != grow {
			cur = grow
			m.SetReorderGrowth(grow)
		}
	})
}

// DisableAuto removes the automatic sifting hook and resets the policy.
func DisableAuto(m *bdd.Manager) { m.SetAutoReorder(0, 0, nil) }

// materializeBlocks projects the registered variable groups onto the
// current order: a maximal run of adjacent levels whose variables all
// belong to one group forms a block, every other level is a singleton.
// (Group variables that are not currently adjacent fall into separate
// blocks — registration at creation time keeps them adjacent, and block
// moves preserve that.)
func materializeBlocks(m *bdd.Manager) []block {
	n := m.NumVars()
	groupOf := make([]int, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, g := range m.VarGroups() {
		for _, v := range g {
			groupOf[v] = gi
		}
	}
	var blocks []block
	for l := 0; l < n; {
		width := 1
		if g := groupOf[m.VarAtLevel(l)]; g >= 0 {
			for l+width < n && groupOf[m.VarAtLevel(l+width)] == g {
				width++
			}
		}
		blocks = append(blocks, block{id: len(blocks), level: l, width: width})
		l += width
	}
	return blocks
}

// blockOrder returns block ids heaviest-first: sifting the most
// populated levels first realizes the biggest reductions early, which
// tightens the max-growth bound for every later move.
func blockOrder(s *bdd.ReorderSession, blocks []block) []int {
	type weighted struct{ id, nodes int }
	ws := make([]weighted, len(blocks))
	for i, b := range blocks {
		ws[i] = weighted{b.id, blockPop(s, b)}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].nodes > ws[j].nodes })
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.id
	}
	return out
}

// blockPop returns the block's current node population.
func blockPop(s *bdd.ReorderSession, b block) int {
	pop := 0
	for l := b.level; l < b.level+b.width; l++ {
		pop += s.LevelSize(l)
	}
	return pop
}

// slack is the most nodes the block could still lose: its population
// minus its width. Every level permanently holds at least its
// variable's pinned projection node, so a level's population never
// drops below one and a block's never below its width — which is what
// makes the lower bound in siftBlock sound.
func slack(s *bdd.ReorderSession, b block) int { return blockPop(s, b) - b.width }

// interacting reports whether any variable of a interacts with any
// variable of b (both blocks at their current levels).
func interacting(m *bdd.Manager, s *bdd.ReorderSession, a, b block) bool {
	for la := a.level; la < a.level+a.width; la++ {
		for lb := b.level; lb < b.level+b.width; lb++ {
			if s.Interacts(m.VarAtLevel(la), m.VarAtLevel(lb)) {
				return true
			}
		}
	}
	return false
}

// siftBlock bubbles st.blocks[idx] to both ends of the order (nearer
// end first), tracking the best position seen, and finally settles the
// block at that position. A direction is abandoned when the node count
// exceeds growth times the best, or — unless disabled — when the lower
// bound proves no remaining position can beat the best: the only levels
// that can still shrink are the moving block itself and the interacting
// blocks ahead of it (crossing a non-interacting block is an exact
// relabel, and blocks already passed are frozen for this direction), so
// once size − Σ slack(ahead) − slack(moving) ≥ best the direction is
// dead.
func siftBlock(m *bdd.Manager, s *bdd.ReorderSession, st *siftState, idx int, growth float64, opts Options) {
	var sp telemetry.Span
	if t := m.Telemetry(); t != nil {
		sp = t.Start("reorder.sift_block")
	}
	fromLevel := st.blocks[idx].level
	fromSize := m.Size()
	best := fromSize
	bestPos := idx
	cur := idx

	// run bubbles the block toward one end: dir=+1 down, dir=-1 up.
	run := func(dir int) {
		blocks := st.blocks
		// Lower-bound state: R bounds how much the blocks still ahead
		// in this direction can shrink.
		R := 0
		if !opts.NoLowerBound {
			for q := cur + dir; q >= 0 && q < len(blocks); q += dir {
				if opts.NoInteraction || interacting(m, s, blocks[cur], blocks[q]) {
					R += slack(s, blocks[q])
				}
			}
		}
		for {
			blocks = st.blocks
			nxt := cur + dir
			if nxt < 0 || nxt >= len(blocks) {
				return
			}
			if !opts.NoInteraction {
				// Jump the maximal run of consecutive non-interacting
				// blocks in one O(span) relabel. The crossing is exact —
				// size unchanged, nothing to check — and those blocks
				// contribute zero slack to R, so the bound learns nothing.
				k, span := 0, 0
				for q := nxt; q >= 0 && q < len(blocks) && !interacting(m, s, blocks[cur], blocks[q]); q += dir {
					k++
					span += blocks[q].width
				}
				if k > 0 {
					jumpBlocks(s, st, cur, dir, k, span)
					cur += k * dir
					continue
				}
			}
			c := 0
			if !opts.NoLowerBound {
				c = slack(s, blocks[nxt])
			}
			j := cur
			if dir < 0 {
				j = cur - 1
			}
			swapBlocks(s, st, j)
			cur = nxt
			sz := m.Size()
			if sz < best {
				best, bestPos = sz, cur
			}
			if float64(sz) > growth*float64(best) {
				return
			}
			if !opts.NoLowerBound {
				R -= c
				if sz-R-slack(s, st.blocks[cur]) >= best {
					s.NoteLowerBoundAbort()
					return
				}
			}
		}
	}
	n := len(st.blocks)
	if idx >= n/2 {
		run(1)
		run(-1)
	} else {
		run(-1)
		run(1)
	}
	for cur != bestPos {
		dir := 1
		if bestPos < cur {
			dir = -1
		}
		if !opts.NoInteraction {
			k, span := 0, 0
			for q := cur + dir; q != bestPos+dir && !interacting(m, s, st.blocks[cur], st.blocks[q]); q += dir {
				k++
				span += st.blocks[q].width
			}
			if k > 0 {
				jumpBlocks(s, st, cur, dir, k, span)
				cur += k * dir
				continue
			}
		}
		j := cur
		if dir < 0 {
			j = cur - 1
		}
		swapBlocks(s, st, j)
		cur += dir
	}
	sp.End(
		telemetry.Int("var", m.VarAtLevel(st.blocks[cur].level)),
		telemetry.Int("width", st.blocks[cur].width),
		telemetry.Int("from_level", fromLevel),
		telemetry.Int("to_level", st.blocks[cur].level),
		telemetry.Int("from_size", fromSize),
		telemetry.Int("to_size", m.Size()))
}

// jumpBlocks moves the block at position cur across the k consecutive
// blocks next to it in direction dir — span levels in total, none of
// them interacting with the mover — with one O(span) kernel relabel,
// then fixes up block levels and the id→position index. The crossed
// blocks keep their internal order and shift by the mover's width.
func jumpBlocks(s *bdd.ReorderSession, st *siftState, cur, dir, k, span int) {
	blocks := st.blocks
	mover := blocks[cur]
	if dir > 0 {
		s.MoveBlock(mover.level, mover.width, span)
		copy(blocks[cur:], blocks[cur+1:cur+k+1])
		for q := cur; q < cur+k; q++ {
			blocks[q].level -= mover.width
			st.posOf[blocks[q].id] = q
		}
		mover.level += span
		blocks[cur+k] = mover
		st.posOf[mover.id] = cur + k
	} else {
		s.MoveBlock(mover.level, mover.width, -span)
		copy(blocks[cur-k+1:cur+1], blocks[cur-k:cur])
		for q := cur - k + 1; q <= cur; q++ {
			blocks[q].level += mover.width
			st.posOf[blocks[q].id] = q
		}
		mover.level -= span
		blocks[cur-k] = mover
		st.posOf[mover.id] = cur - k
	}
}

// swapBlocks exchanges the adjacent blocks at positions j and j+1 with
// width(x)*width(y) adjacent-level swaps, preserving the internal order
// of both, and keeps the id→position index current.
func swapBlocks(s *bdd.ReorderSession, st *siftState, j int) {
	blocks := st.blocks
	x, y := blocks[j], blocks[j+1]
	p := x.level
	// Bubble each level of y in turn up through all of x.
	for k := 0; k < y.width; k++ {
		for t := p + x.width + k; t > p+k; t-- {
			s.Swap(t - 1)
		}
	}
	y.level = p
	x.level = p + y.width
	blocks[j], blocks[j+1] = y, x
	st.posOf[y.id], st.posOf[x.id] = j, j+1
}
