package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/decoder"
	"surfcomm/internal/device"
	"surfcomm/internal/sweep"
)

// runDecode runs the decoder-strategy comparison behind
// BENCH_decode.json: parity cells at small distances (same per-cell
// seeds for both strategies, so the failure counts are directly
// comparable) plus a work-op curve at p=0.08 out to d=17, from which
// the union-find crossover distance is derived. Work-ops — not wall
// clock — are recorded so the artifact is byte-identical on any
// machine.
func runDecode(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	parityDistances := []int{3, 5, 7}
	parityRates := []float64{0.03, 0.05, 0.08}
	const parityTrials = 400
	crossDistances := []int{9, 13, 17}
	crossRates := []float64{0.08}
	const crossTrials = 60

	uf, err := decoder.StrategyByName(decoder.StrategyUnionFind)
	if err != nil {
		return nil, err
	}
	// The default MWPM strategy runs as nil, like the decoder study.
	strategies := []decoder.Strategy{nil, uf}

	var records []sweep.CellResult
	// ops[strategy][d] = work-ops per trial at p=0.08.
	ops := map[string]map[int]float64{}
	fmt.Fprintln(e.out, "Decoder strategy benchmark: mwpm vs unionfind")
	fmt.Fprintln(e.out, strings.Repeat("-", 72))
	fmt.Fprintf(e.out, "%-10s %-6s %10s %10s %12s %14s\n", "strategy", "d", "p", "failures", "trials", "workops/trial")
	for _, s := range strategies {
		name := decoder.StrategyMWPM
		if s != nil {
			name = s.Name()
		}
		cells, err := sweep.DecoderGrid(ctx, e.grid("decode"), parityDistances, parityRates, parityTrials, s)
		if err != nil {
			return nil, err
		}
		cross, err := sweep.DecoderGrid(ctx, e.grid("decode"), crossDistances, crossRates, crossTrials, s)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cross...)
		ops[name] = map[int]float64{}
		for _, c := range cells {
			perTrial := float64(c.WorkOps) / float64(c.Trials)
			if c.PhysicalRate == 0.08 {
				ops[name][c.Distance] = perTrial
			}
			fmt.Fprintf(e.out, "%-10s %-6d %10.2f %10d %12d %14.1f\n",
				name, c.Distance, c.PhysicalRate, c.Failures, c.Trials, perTrial)
			// Work-ops, not wall clock, so the artifact is
			// byte-identical on any machine.
			records = append(records, sweep.CellResult{
				Study:    "decode",
				Device:   device.PresetPerfect,
				Strategy: name,
				Cell:     fmt.Sprintf("d=%d/p=%.2e/%s", c.Distance, c.PhysicalRate, name),
				Seed:     c.Seed,
				Metrics: map[string]float64{
					"failures":          float64(c.Failures),
					"logical_rate":      c.LogicalRate,
					"trials":            float64(c.Trials),
					"workops":           float64(c.WorkOps),
					"workops_per_trial": perTrial,
				},
			})
		}
	}

	// Crossover: the smallest distance from which union-find stays
	// cheaper than the matcher for every larger measured distance.
	curve := append(append([]int{}, parityDistances...), crossDistances...)
	crossover := -1
	for i := len(curve) - 1; i >= 0; i-- {
		d := curve[i]
		if ops[decoder.StrategyUnionFind][d] < ops[decoder.StrategyMWPM][d] {
			crossover = d
		} else {
			break
		}
	}
	rec := e.perfect("decode", "crossover/p=8.00e-02", map[string]float64{"crossover_distance": float64(crossover)})
	rec.Strategy = decoder.StrategyUnionFind
	records = append(records, rec)
	if crossover >= 0 {
		fmt.Fprintf(e.out, "crossover: unionfind cheaper than mwpm from d=%d on (p=0.08, work-ops/trial)\n", crossover)
	} else {
		fmt.Fprintln(e.out, "crossover: mwpm cheaper across the measured range (p=0.08)")
	}
	return records, nil
}
