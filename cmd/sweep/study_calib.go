package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/sweep"
)

// runCalib prints the calibration study: square vs heavy-hex coupling,
// uniform vs calibrated devices, and live-defect survival, each a braid
// compile of one application.
func runCalib(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	cells, err := sweep.CalibGrid(ctx, e.grid("calib"), sweep.CalibOptions{
		App:         e.app,
		SquareOnly:  e.squareOnly,
		Calibration: e.calibration,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "Calibration study: coupling topology, calibrated heterogeneity, live defects")
	fmt.Fprintln(e.out, strings.Repeat("-", 100))
	fmt.Fprintf(e.out, "%-6s %-10s %-12s %5s %10s %7s %8s %8s %11s %11s %11s\n",
		"App", "topology", "cells", "trial", "cycles", "ratio", "adaptive", "reroutes", "p_tile min", "p_tile max", "p_L(sched)")
	var defectCells, survived int
	for _, c := range cells {
		label := "uniform"
		if c.Calibrated {
			label = "calibrated"
		}
		if c.Defects > 0 {
			label = fmt.Sprintf("defects=%d", c.Defects)
			defectCells++
			if c.Survived {
				survived++
			}
		}
		if !c.Survived {
			fmt.Fprintf(e.out, "%-6s %-10s %-12s %5d %10s\n", c.App, c.Topology, label, c.Trial, "unroutable")
			continue
		}
		fmt.Fprintf(e.out, "%-6s %-10s %-12s %5d %10d %7.3f %8d %8d %11.3e %11.3e %11.3e\n",
			c.App, c.Topology, label, c.Trial, c.Cycles, c.Ratio, c.Adaptive, c.Reroutes, c.RateMin, c.RateMax, c.LogicalRate)
	}
	if defectCells > 0 {
		fmt.Fprintf(e.out, "live-defect survival: %d/%d runs re-routed around mid-schedule coupler deaths\n",
			survived, defectCells)
	}
	fmt.Fprintln(e.out, "Calibration realizes as heterogeneous link weights (slow couplers stretch braids)")
	fmt.Fprintln(e.out, "and per-tile error rates (placement avoids hot tiles; p_L prices the spread).")
	return sweep.CalibRecords(cells), nil
}
