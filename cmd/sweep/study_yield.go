package main

import (
	"cmp"
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/braid"
	"surfcomm/internal/device"
	"surfcomm/internal/surface"
	"surfcomm/internal/sweep"
)

// The yield study's fixed grid parameters.
const (
	yieldDistance      = 9
	yieldTrials        = 2    // device realizations per defect fraction
	yieldPhysicalError = 1e-8 // p_P for the logical-rate estimate
)

// runYield prints the communication-yield study: braid compiles of one
// application (-app, default GSE) across defect fractions and
// independent device realizations. Each cell realizes its own device
// from a seed derived from the base seed and the cell index; unroutable
// realizations are rows, not failures.
func runYield(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	w, err := workload(cmp.Or(e.app, "GSE"))
	if err != nil {
		return nil, err
	}
	fracs := e.fracs
	if len(fracs) == 0 {
		fracs = []float64{0, 0.02, 0.05}
	}
	type cell struct {
		frac  float64
		trial int
	}
	var cells []cell
	for _, f := range fracs {
		for t := 0; t < yieldTrials; t++ {
			cells = append(cells, cell{f, t})
		}
	}
	perTile := surface.Superconducting(yieldPhysicalError).LogicalErrorPerCycle(yieldDistance)

	fmt.Fprintln(e.out, "Communication yield: braid compiles on defective devices")
	fmt.Fprintln(e.out, strings.Repeat("-", 78))
	fmt.Fprintf(e.out, "%-8s %8s %6s %12s %8s %10s %12s\n",
		"App", "p", "trial", "cycles", "ratio", "adaptive", "p_L(sched)")
	records, err := runCells(ctx, e, "yield", cells, func(i int, c cell) ([]sweep.CellResult, string, error) {
		seed := device.CellSeed(e.seed, i)
		dev := device.RandomYield(c.frac, seed)
		if e.clustered {
			dev = device.ClusteredDefects(c.frac, seed)
		}
		r, unroutable, err := e.braidOnDevice(ctx, w, braid.Config{Distance: yieldDistance, Device: dev})
		if err != nil {
			return nil, "", fmt.Errorf("%s at p=%g trial %d: %w", w.Name, c.frac, c.trial, err)
		}
		rate := scheduleLogicalRate(r, perTile)
		text := fmt.Sprintf("%-8s %8g %6d %12d %8.3f %10d %12.3e\n",
			w.Name, c.frac, c.trial, r.ScheduleCycles, r.Ratio, r.AdaptiveRoutes, rate)
		lost := 0.0
		if unroutable {
			text = fmt.Sprintf("%-8s %8g %6d %12s\n", w.Name, c.frac, c.trial, "unroutable")
			lost = 1
		}
		return []sweep.CellResult{{
			Study:  "yield",
			Device: dev.String(),
			Cell:   fmt.Sprintf("%s/p=%g/trial%d", w.Name, c.frac, c.trial),
			Seed:   seed,
			Metrics: map[string]float64{
				"cycles":       float64(r.ScheduleCycles),
				"ratio":        r.Ratio,
				"adaptive":     float64(r.AdaptiveRoutes),
				"tiles":        float64(r.Tiles),
				"logical_rate": rate,
				"unroutable":   lost,
			},
		}}, text, nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "Defects stretch schedules (dimension-ordered routes detour via BFS) until")
	fmt.Fprintln(e.out, "the fabric disconnects and compiles fail fast with ErrUnroutable.")
	return records, nil
}
