package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"surfcomm"
	"surfcomm/internal/service"
)

// Every input the program sees is generated here from the workload
// seed; the same seed gives byte-identical inputs.

// zipfWeights returns P(rank k) ∝ (k+1)^-s for k in [0, n).
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// zipfBlock returns how often each rank appears in a block of size
// block: the Zipf shares rounded by largest remainder, so every block
// holds the exact same mix.
func zipfBlock(n int, s float64, block int) []int {
	w := zipfWeights(n, s)
	counts := make([]int, n)
	rem := make([]float64, n)
	used := 0
	for k, p := range w {
		exact := p * float64(block)
		counts[k] = int(exact)
		rem[k] = exact - float64(counts[k])
		used += counts[k]
	}
	for ; used < block; used++ {
		best := 0
		for k := range rem {
			if rem[k] > rem[best] {
				best = k
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// zipfOrder is the serve-warm request order: blocks of the exact Zipf
// mix over n ranks, each block shuffled by the seeded source. The mix
// is the same for every seed (so throughput does not depend on which
// item the seed happened to make hot); only the order changes.
func zipfOrder(seed int64, n int, s float64, block, blocks int) []int {
	rng := rand.New(rand.NewSource(seed))
	counts := zipfBlock(n, s, block)
	out := make([]int, 0, block*blocks)
	for b := 0; b < blocks; b++ {
		start := len(out)
		for k, c := range counts {
			for i := 0; i < c; i++ {
				out = append(out, k)
			}
		}
		blk := out[start:]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	return out
}

// editRotation is the serve-edit stream: request i edits module
// order[i%len(order)] with a variant no earlier request used, so every
// request is a distinct program (a plan-cache miss) that dirties
// exactly one module.
type editRotation struct {
	order []string
	base  int
}

func newEditRotation(seed int64, modules []string) editRotation {
	rng := rand.New(rand.NewSource(seed))
	order := append([]string(nil), modules...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return editRotation{order: order, base: 1 + rng.Intn(1<<16)}
}

// edit returns the module and variant of request i.
func (r editRotation) edit(i int) (string, int) {
	return r.order[i%len(r.order)], r.base + i/len(r.order)
}

// request returns request i's program, its /compile request and the
// marshalled body the client sends.
func (r editRotation) request(base *surfcomm.Program, i int) (*surfcomm.Program, service.Request, []byte, error) {
	mod, variant := r.edit(i)
	prog, err := surfcomm.MutateModule(base, mod, variant)
	if err != nil {
		return nil, service.Request{}, nil, err
	}
	req := service.Request{QASM: surfcomm.ProgramQASMString(prog), Backend: "braid"}
	body, err := json.Marshal(req)
	return prog, req, body, err
}

// syndromeStream is one /decode session's input: the measured
// syndrome of every round (data errors accumulate across rounds at
// rate p per qubit per round) and the final accumulated error pattern.
type syndromeStream struct {
	rounds [][]bool
	errs   []bool
}

func newSyndromeStream(seed int64, l *surfcomm.DecoderLattice, rounds int, p float64) syndromeStream {
	rng := rand.New(rand.NewSource(seed))
	errs := l.NewErrorPattern()
	out := syndromeStream{rounds: make([][]bool, rounds)}
	for r := range out.rounds {
		for q := range errs {
			if rng.Float64() < p {
				errs[q] = !errs[q]
			}
		}
		out.rounds[r] = l.Syndrome(errs)
	}
	out.errs = errs
	return out
}
