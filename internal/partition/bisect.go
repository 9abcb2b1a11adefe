package partition

import (
	"math/rand"
	"sort"
)

// Options tunes Bisect.
type Options struct {
	// Seed makes runs reproducible; the same seed always yields the
	// same partition.
	Seed int64
}

// Bisect tuning: side weights may reach (0.5+balanceTolerance)·total,
// coarsening stops once the graph has at most maxCoarseSize vertices,
// and FM refinement runs at most fmPasses passes per level.
const (
	balanceTolerance = 0.08
	maxCoarseSize    = 24
	fmPasses         = 8
)

// Bisect splits the graph into two balanced sides minimizing the cut
// weight, returning the side assignment (0 or 1 per vertex) and the
// achieved cut. Multilevel scheme: heavy-edge-matching coarsening, a
// greedy seed-growth partition of the coarsest graph, then FM
// refinement at every uncoarsening level.
func Bisect(g *Graph, opts Options) (side []int, cut int) {
	n := g.NumVertices()
	side = make([]int, n)
	if n <= 1 {
		return side, 0
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	level := fromGraph(g)
	var hierarchy []*coarseLevel
	for level.size() > maxCoarseSize {
		next, ok := level.coarsen(rng)
		if !ok {
			break
		}
		hierarchy = append(hierarchy, next)
		level = next.graph
	}

	// One refinement scratch serves every level: sized for the finest
	// graph, it is reused across initial partitioning, every FM pass,
	// and every uncoarsening level instead of reallocating per pass.
	sc := newFMScratch(n)
	coarseSide := level.initialPartition(rng, sc)
	level.refine(coarseSide, sc)

	// Project back through the hierarchy, refining at each level.
	for i := len(hierarchy) - 1; i >= 0; i-- {
		h := hierarchy[i]
		fine := h.fine
		fineSide := make([]int, fine.size())
		for v := range fineSide {
			fineSide[v] = coarseSide[h.match[v]]
		}
		fine.refine(fineSide, sc)
		coarseSide = fineSide
	}
	copy(side, coarseSide)
	return side, g.CutWeight(side)
}

// fmScratch is the reusable working set of the refinement passes: gain
// tables, lock flags, and the tentative move sequence. Buffers grow to
// the finest level and are re-sliced per level.
type fmScratch struct {
	gain   []int
	locked []bool
	seq    []fmMove
}

type fmMove struct{ v, gain int }

func newFMScratch(n int) *fmScratch {
	return &fmScratch{
		gain:   make([]int, n),
		locked: make([]bool, n),
		seq:    make([]fmMove, 0, n),
	}
}

// forSize returns zeroed gain and locked views of length n.
func (sc *fmScratch) forSize(n int) (gain []int, locked []bool) {
	if cap(sc.gain) < n {
		sc.gain = make([]int, n)
		sc.locked = make([]bool, n)
	}
	gain, locked = sc.gain[:n], sc.locked[:n]
	clear(gain)
	clear(locked)
	return gain, locked
}

// coarseLevel records one coarsening step: the fine graph and the
// mapping of fine vertices to coarse supervertices.
type coarseLevel struct {
	fine  *levelGraph
	graph *levelGraph
	match []int // fine vertex -> coarse vertex
}

// levelGraph is the internal weighted-vertex representation used during
// multilevel bisection (supervertices carry the weight of everything
// merged into them).
type levelGraph struct {
	vw  []int
	nbr []map[int]int
}

func fromGraph(g *Graph) *levelGraph {
	n := g.NumVertices()
	lg := &levelGraph{vw: make([]int, n), nbr: make([]map[int]int, n)}
	for v := 0; v < n; v++ {
		lg.vw[v] = 1
		if g.nbr[v] != nil {
			m := make(map[int]int, len(g.nbr[v]))
			for u, w := range g.nbr[v] {
				m[u] = w
			}
			lg.nbr[v] = m
		} else {
			lg.nbr[v] = map[int]int{}
		}
	}
	return lg
}

func (lg *levelGraph) size() int { return len(lg.vw) }

func (lg *levelGraph) totalWeight() int {
	t := 0
	for _, w := range lg.vw {
		t += w
	}
	return t
}

// coarsen performs one round of heavy-edge matching. It returns ok =
// false when matching cannot shrink the graph (e.g. no edges left).
func (lg *levelGraph) coarsen(rng *rand.Rand) (*coarseLevel, bool) {
	n := lg.size()
	order := rng.Perm(n)
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	coarseCount := 0
	// Heavy-edge matching: each unmatched vertex pairs with its
	// heaviest-edge unmatched neighbor.
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		best, bestW := -1, 0
		for u, w := range lg.nbr[v] {
			// Deterministic tie-break on vertex id: map iteration order
			// must not leak into the partition.
			if match[u] < 0 && (w > bestW || (w == bestW && best >= 0 && u < best)) {
				best, bestW = u, w
			}
		}
		match[v] = coarseCount
		if best >= 0 {
			match[best] = coarseCount
		}
		coarseCount++
	}
	if coarseCount == n {
		return nil, false
	}
	coarse := &levelGraph{vw: make([]int, coarseCount), nbr: make([]map[int]int, coarseCount)}
	for i := range coarse.nbr {
		coarse.nbr[i] = map[int]int{}
	}
	for v := 0; v < n; v++ {
		cv := match[v]
		coarse.vw[cv] += lg.vw[v]
		for u, w := range lg.nbr[v] {
			cu := match[u]
			if cu != cv && v < u {
				coarse.nbr[cv][cu] += w
				coarse.nbr[cu][cv] += w
			}
		}
	}
	return &coarseLevel{fine: lg, graph: coarse, match: match}, true
}

// initialPartition grows side 0 from a seed by repeatedly absorbing the
// vertex most heavily connected to the growing region, until half the
// total vertex weight is absorbed.
func (lg *levelGraph) initialPartition(rng *rand.Rand, sc *fmScratch) []int {
	n := lg.size()
	side := make([]int, n)
	for v := range side {
		side[v] = 1
	}
	target := lg.totalWeight() / 2
	if n == 0 || target == 0 {
		return side
	}
	gain, _ := sc.forSize(n)
	seed := rng.Intn(n)
	side[seed] = 0
	absorbed := lg.vw[seed]
	for u, w := range lg.nbr[seed] {
		gain[u] += w
	}
	for absorbed < target {
		best, bestGain := -1, -1
		for v := 0; v < n; v++ {
			if side[v] == 1 && gain[v] > bestGain {
				best, bestGain = v, gain[v]
			}
		}
		if best < 0 {
			break
		}
		// Disconnected remainder: gain 0 vertices still get absorbed,
		// keeping balance even for edgeless graphs.
		side[best] = 0
		absorbed += lg.vw[best]
		for u, w := range lg.nbr[best] {
			gain[u] += w
		}
	}
	return side
}

// refine restores balance (projection from a coarser level, or the
// greedy initial partition, can overshoot when supervertices are
// lumpy), then runs FM passes until no pass improves the cut.
func (lg *levelGraph) refine(side []int, sc *fmScratch) {
	total := lg.totalWeight()
	maxSide := int(float64(total) * (0.5 + balanceTolerance))
	if min := (total + 1) / 2; maxSide < min {
		maxSide = min
	}
	lg.rebalance(side, maxSide)
	for pass := 0; pass < fmPasses; pass++ {
		if !lg.fmPass(side, maxSide, sc) {
			return
		}
	}
}

// rebalance moves best-gain vertices off the heavy side until both
// sides fit under maxSide (or no further move can help — a single
// overweight supervertex resolves at a finer level, where weights are
// smaller).
func (lg *levelGraph) rebalance(side []int, maxSide int) {
	weights := [2]int{}
	for v, s := range side {
		weights[s] += lg.vw[v]
	}
	for {
		heavy := 0
		if weights[1] > weights[0] {
			heavy = 1
		}
		if weights[heavy] <= maxSide {
			return
		}
		best, bestGain := -1, 0
		for v, s := range side {
			if s != heavy {
				continue
			}
			if g := lg.moveGain(v, side); best < 0 || g > bestGain {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			return // heavy side is a single vertex; nothing to move
		}
		side[best] = 1 - heavy
		weights[heavy] -= lg.vw[best]
		weights[1-heavy] += lg.vw[best]
		if weights[1-heavy] > weights[heavy] && weights[1-heavy] > maxSide {
			// The move flipped which side is overweight without fixing
			// anything (one huge vertex): undo and give up at this level.
			side[best] = heavy
			weights[heavy] += lg.vw[best]
			weights[1-heavy] -= lg.vw[best]
			return
		}
	}
}

// fmPass performs one Fiduccia–Mattheyses pass: tentatively move every
// vertex once in best-gain order (respecting balance), then keep the
// best prefix of the move sequence. Returns whether the cut improved.
func (lg *levelGraph) fmPass(side []int, maxSide int, sc *fmScratch) bool {
	n := lg.size()
	gain, locked := sc.forSize(n)
	for v := 0; v < n; v++ {
		gain[v] = lg.moveGain(v, side)
	}
	weights := [2]int{}
	for v := 0; v < n; v++ {
		weights[side[v]] += lg.vw[v]
	}

	sequence := sc.seq[:0]
	cumulative, best, bestIdx := 0, 0, -1

	for step := 0; step < n; step++ {
		cand, candGain := -1, 0
		for v := 0; v < n; v++ {
			if locked[v] {
				continue
			}
			dst := 1 - side[v]
			if weights[dst]+lg.vw[v] > maxSide {
				continue
			}
			if cand < 0 || gain[v] > candGain {
				cand, candGain = v, gain[v]
			}
		}
		if cand < 0 {
			break
		}
		src := side[cand]
		side[cand] = 1 - src
		weights[src] -= lg.vw[cand]
		weights[1-src] += lg.vw[cand]
		locked[cand] = true
		cumulative += candGain
		sequence = append(sequence, fmMove{cand, candGain})
		if cumulative > best {
			best, bestIdx = cumulative, len(sequence)-1
		}
		for u := range lg.nbr[cand] {
			if !locked[u] {
				gain[u] = lg.moveGain(u, side)
			}
		}
	}
	// Roll back everything after the best prefix.
	for i := len(sequence) - 1; i > bestIdx; i-- {
		v := sequence[i].v
		side[v] = 1 - side[v]
	}
	sc.seq = sequence[:0] // hand grown capacity back for the next pass
	return best > 0
}

// moveGain returns the cut reduction from moving v to the other side:
// external connectivity minus internal connectivity.
func (lg *levelGraph) moveGain(v int, side []int) int {
	g := 0
	for u, w := range lg.nbr[v] {
		if side[u] == side[v] {
			g -= w
		} else {
			g += w
		}
	}
	return g
}

// Balanced reports whether the side assignment keeps both sides within
// the tolerance used by Bisect (unit vertex weights). A ceil(n/2) side
// is always considered balanced — no split of an odd set can do better.
func Balanced(side []int, tolerance float64) bool {
	counts := [2]int{}
	for _, s := range side {
		counts[s]++
	}
	limit := int(float64(len(side)) * (0.5 + tolerance))
	if min := (len(side) + 1) / 2; limit < min {
		limit = min
	}
	return counts[0] <= limit && counts[1] <= limit
}

// SideVertices splits vertex ids by side, each in ascending order.
func SideVertices(side []int) (zero, one []int) {
	for v, s := range side {
		if s == 0 {
			zero = append(zero, v)
		} else {
			one = append(one, v)
		}
	}
	sort.Ints(zero)
	sort.Ints(one)
	return zero, one
}
