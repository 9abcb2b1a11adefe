package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"
)

// The bisector feeds qubit placement, and placement digests feed the
// committed BENCH artifacts — so Bisect must be a pure function of
// (graph, options): no map-iteration-order leakage, no shared scratch
// between calls, no dependence on who else is partitioning at the same
// time. The tests below pin that down harder than the single-graph
// determinism check in partition_test.go.

// parityCorpus is the seeded random-graph family the parity tests
// sweep: sizes from below maxCoarseSize (no coarsening at all) to well
// above it (several coarsening levels), with edge densities from
// near-forest to dense.
func parityCorpus() []*Graph {
	var graphs []*Graph
	for i := 0; i < 30; i++ {
		n := 8 + (i*7)%89      // 8..96, straddling maxCoarseSize=24
		edges := n * (1 + i%4) // sparse to dense
		seed := int64(100 + i*13)
		graphs = append(graphs, randomGraph(n, edges, seed))
	}
	return graphs
}

// bisectFingerprint hashes one Bisect result into a digest.
func bisectFingerprint(h *sha256Writer, side []int, cut int) {
	h.writeInt(cut)
	for _, s := range side {
		h.writeInt(s)
	}
}

type sha256Writer struct {
	h   [32]byte
	buf []byte
}

func (w *sha256Writer) writeInt(v int) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(v)))
}

func (w *sha256Writer) sum() string {
	w.h = sha256.Sum256(w.buf)
	return hex.EncodeToString(w.h[:])
}

// parityGoldenDigest pins the serial results over the whole corpus.
// If a change to this package moves it, that change was NOT
// behavior-preserving: every committed BENCH artifact downstream of
// placement is suspect and must be regenerated deliberately.
const parityGoldenDigest = "b36445c759e8c574ceee9da4d75909fbbfc71e2aaf9b7159c5463d44ada9bc03"

// TestBisectCorpusGoldenDigest recomputes the corpus digest serially
// and compares it against the pinned constant.
func TestBisectCorpusGoldenDigest(t *testing.T) {
	w := &sha256Writer{}
	for i, g := range parityCorpus() {
		side, cut := Bisect(g, Options{Seed: int64(i)})
		bisectFingerprint(w, side, cut)
	}
	if got := w.sum(); got != parityGoldenDigest {
		t.Errorf("corpus digest %s != pinned %s — bisector results moved; "+
			"downstream BENCH artifacts are stale", got, parityGoldenDigest)
	}
}

// TestBisectConcurrentParity computes a serial golden per corpus graph,
// then re-runs every (graph, seed) pair from a pool of concurrent
// callers sharing the same *Graph values — the shape of a toolchain
// compiling modules in parallel. Every concurrent result must be
// identical to its serial golden; under -race this also flushes out any
// shared mutable state between calls.
func TestBisectConcurrentParity(t *testing.T) {
	graphs := parityCorpus()
	goldenSides := make([][]int, len(graphs))
	goldenCuts := make([]int, len(graphs))
	for i, g := range graphs {
		goldenSides[i], goldenCuts[i] = Bisect(g, Options{Seed: int64(i)})
	}

	callers := 2 * runtime.GOMAXPROCS(0)
	if callers < 4 {
		callers = 4
	}
	const itersPerCaller = 3
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < itersPerCaller; iter++ {
				// Stagger the starting graph so callers overlap on
				// different graphs at different times.
				for k := range graphs {
					i := (k + c) % len(graphs)
					side, cut := Bisect(graphs[i], Options{Seed: int64(i)})
					if cut != goldenCuts[i] {
						errs <- "concurrent cut diverged from serial golden"
						return
					}
					for v := range side {
						if side[v] != goldenSides[i][v] {
							errs <- "concurrent assignment diverged from serial golden"
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
