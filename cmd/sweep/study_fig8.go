package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// runFig8 prints Figure 8: double-defect relative to planar resources
// and the crossover point, for the serial SQ and the parallel IM.
func runFig8(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	models, err := e.appModels(ctx)
	if err != nil {
		return nil, err
	}
	var records []sweep.CellResult
	for _, name := range []string{"SQ", "IM_Fully_Inlined"} {
		m, err := surfcomm.ModelFor(models, name)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(e.out, "Figure 8: double-defect relative to planar, %s (p_P=%.0e)\n", name, e.pp)
		fmt.Fprintln(e.out, strings.Repeat("-", 64))
		fmt.Fprintf(e.out, "%-10s %4s %10s %10s %12s\n", "K (1/p_L)", "d", "qubits", "time", "qubits*time")
		pts, err := e.tc.Curve(ctx, m, 0, 24, 1)
		if err != nil {
			return nil, err
		}
		for i, dp := range pts {
			records = append(records, e.curveRecord("figure8", name, dp))
			if i%2 != 0 {
				continue
			}
			fmt.Fprintf(e.out, "%-10.1e %4d %10.2f %10.3f %12.3f\n",
				dp.TotalOps, dp.Distance, dp.QubitsRatio, dp.TimeRatio, dp.SpaceTimeRatio)
		}
		if k, ok := e.tc.Crossover(m); ok {
			fmt.Fprintf(e.out, "crossover: double-defect favored beyond K ~= %.1e\n", k)
		} else {
			fmt.Fprintln(e.out, "crossover: planar favored across the full 1e0..1e24 range")
		}
		fmt.Fprintln(e.out)
	}
	fmt.Fprintln(e.out, "Paper: planar better at small sizes; crossover occurs much later for the")
	fmt.Fprintln(e.out, "parallel IM than for the serial SQ (congestion hurts braids more).")
	return records, nil
}
