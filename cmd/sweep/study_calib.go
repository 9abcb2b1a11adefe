package main

import (
	"cmp"
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/braid"
	"surfcomm/internal/device"
	"surfcomm/internal/resource"
	"surfcomm/internal/surface"
	"surfcomm/internal/sweep"
)

// The calibration study's fixed grid parameters.
const (
	calibDistance      = 9
	calibTrials        = 2    // calibrations and defect schedules per topology
	calibDefectEvents  = 3    // live coupler deaths per defect cell
	calibPhysicalError = 1e-3 // uniform p_P baseline: calibration-scale, so spreads show
)

// runCalib prints the calibration study: how much device heterogeneity
// moves the braid-compiled schedule of one application (-app, default
// GSE) and its logical error rate. It compares square vs heavy-hex
// coupling (-square-only drops heavy-hex) and uniform vs calibrated
// devices (a synthetic snapshot per cell, or -calibration for all), and
// measures the share of runs that re-route around mid-schedule coupler
// deaths instead of failing.
func runCalib(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	w, err := workload(cmp.Or(e.app, "GSE"))
	if err != nil {
		return nil, err
	}
	// A serial pre-pass on the perfect square device learns the junction
	// grid every cell shares (neither heavy-hex nor calibration kills
	// tiles) and the schedule length that scales the defect horizon.
	base, err := braid.SimulateContext(ctx, w.Circuit, braid.Policy6, braid.Config{
		Distance:       calibDistance,
		Seed:           e.seed,
		RecordSchedule: true, // only to learn the floorplan dims
	})
	if err != nil {
		return nil, fmt.Errorf("pre-pass: %w", err)
	}
	jrows, jcols := base.Arch.TileRows+1, base.Arch.TileCols+1
	horizon := max(base.ScheduleCycles/2, 1)
	tech := surface.Superconducting(calibPhysicalError)

	type cell struct {
		topology   string
		calibrated bool
		defects    int
		trial      int
	}
	topologies := []string{device.GraphSquare}
	if !e.squareOnly {
		topologies = append(topologies, device.GraphHeavyHex)
	}
	var cells []cell
	for _, topo := range topologies {
		cells = append(cells, cell{topology: topo})
	}
	for t := 0; t < calibTrials; t++ {
		for _, topo := range topologies {
			cells = append(cells, cell{topology: topo, calibrated: true, trial: t})
		}
	}
	for t := 0; t < calibTrials; t++ {
		for _, topo := range topologies {
			cells = append(cells, cell{topology: topo, defects: calibDefectEvents, trial: t})
		}
	}

	fmt.Fprintln(e.out, "Calibration study: coupling topology, calibrated heterogeneity, live defects")
	fmt.Fprintln(e.out, strings.Repeat("-", 100))
	fmt.Fprintf(e.out, "%-6s %-10s %-12s %5s %10s %7s %8s %8s %11s %11s %11s\n",
		"App", "topology", "cells", "trial", "cycles", "ratio", "adaptive", "reroutes", "p_tile min", "p_tile max", "p_L(sched)")
	records, err := runCells(ctx, e, "calib", cells, func(i int, c cell) ([]sweep.CellResult, string, error) {
		seed := device.CellSeed(e.seed, i)
		dev := device.Perfect()
		if c.topology == device.GraphHeavyHex {
			dev = device.HeavyHex(seed)
		}
		label := "uniform"
		if c.calibrated {
			label = "calibrated"
			cal := e.calibration
			if cal == nil {
				cal = device.SyntheticCalibration(seed, jrows, jcols)
			}
			dev = dev.WithCalibration(cal)
		}
		var defects *device.DefectSchedule
		if c.defects > 0 {
			label = fmt.Sprintf("defects=%d", c.defects)
			defects = device.RandomDefectSchedule(seed, jrows, jcols, c.defects, horizon)
		}
		// Per-tile logical-rate spread on the realized junction grid.
		rateMin, rateMax, rateMean := resource.RateSpread(
			resource.TileLogicalRates(dev.Instance(jrows, jcols), tech, calibDistance))
		r, unroutable, err := e.braidOnDevice(ctx, w, braid.Config{Distance: calibDistance, Device: dev, Defects: defects})
		if err != nil {
			return nil, "", fmt.Errorf("%s trial %d: %w", c.topology, c.trial, err)
		}
		rate := scheduleLogicalRate(r, rateMean)
		text := fmt.Sprintf("%-6s %-10s %-12s %5d %10d %7.3f %8d %8d %11.3e %11.3e %11.3e\n",
			w.Name, c.topology, label, c.trial, r.ScheduleCycles, r.Ratio, r.AdaptiveRoutes, r.Reroutes, rateMin, rateMax, rate)
		survived := 1.0
		if unroutable {
			text = fmt.Sprintf("%-6s %-10s %-12s %5d %10s\n", w.Name, c.topology, label, c.trial, "unroutable")
			survived = 0
		}
		return []sweep.CellResult{{
			Study:  "calib",
			Device: dev.String(),
			Cell:   fmt.Sprintf("%s/%s/%s/trial%d", w.Name, c.topology, label, c.trial),
			Seed:   seed,
			Metrics: map[string]float64{
				"cycles":       float64(r.ScheduleCycles),
				"ratio":        r.Ratio,
				"adaptive":     float64(r.AdaptiveRoutes),
				"reroutes":     float64(r.Reroutes),
				"tiles":        float64(r.Tiles),
				"rate_min":     rateMin,
				"rate_max":     rateMax,
				"rate_mean":    rateMean,
				"logical_rate": rate,
				"survived":     survived,
			},
		}}, text, nil
	})
	if err != nil {
		return nil, err
	}
	// One record per cell, so records[i] is cells[i]'s.
	var defectCells, survived int
	for i, c := range cells {
		if c.defects > 0 {
			defectCells++
			survived += int(records[i].Metrics["survived"])
		}
	}
	if defectCells > 0 {
		fmt.Fprintf(e.out, "live-defect survival: %d/%d runs re-routed around mid-schedule coupler deaths\n",
			survived, defectCells)
	}
	fmt.Fprintln(e.out, "Calibration realizes as heterogeneous link weights (slow couplers stretch braids)")
	fmt.Fprintln(e.out, "and per-tile error rates (placement avoids hot tiles; p_L prices the spread).")
	return records, nil
}
