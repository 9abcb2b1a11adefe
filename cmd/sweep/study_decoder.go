package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/decoder"
	"surfcomm/internal/device"
	"surfcomm/internal/sweep"
)

// runDecoder prints the §2.3 error-model validation grid: Monte Carlo
// logical error rates across distances and physical rates, decoded
// under -decoder-strategy.
func runDecoder(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	cells, err := sweep.DecoderGrid(ctx, e.grid("decoder"), []int{3, 5, 7}, []float64{0.02, 0.05, 0.10}, 400, e.strategy)
	if err != nil {
		return nil, err
	}
	strategy := decoder.StrategyMWPM
	if e.strategy != nil {
		strategy = e.strategy.Name()
	}
	fmt.Fprintf(e.out, "§2.3: Monte Carlo error-model validation (logical rate per decode round, %s)\n", strategy)
	fmt.Fprintln(e.out, strings.Repeat("-", 56))
	fmt.Fprintf(e.out, "%-6s %10s %10s %12s %10s\n", "d", "p", "failures", "trials", "p_L")
	records := make([]sweep.CellResult, 0, len(cells))
	for _, c := range cells {
		fmt.Fprintf(e.out, "%-6d %10.2f %10d %12d %10.4f\n",
			c.Distance, c.PhysicalRate, c.Failures, c.Trials, c.LogicalRate)
		records = append(records, sweep.CellResult{
			Study:    "decoder",
			Device:   device.PresetPerfect,
			Strategy: c.Strategy,
			Cell:     fmt.Sprintf("d=%d/p=%.2e", c.Distance, c.PhysicalRate),
			Seed:     c.Seed, // the cell's own derived Monte Carlo seed
			Metrics: map[string]float64{
				"failures":     float64(c.Failures),
				"logical_rate": c.LogicalRate,
				"trials":       float64(c.Trials),
			},
		})
	}
	fmt.Fprintln(e.out, "Paper: below threshold, each distance step suppresses the logical rate.")
	return records, nil
}
