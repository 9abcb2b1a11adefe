package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// runFig7 prints Figure 7: absolute space and time of the SQ
// application across computation sizes at -pp.
func runFig7(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	models, err := e.appModels(ctx)
	if err != nil {
		return nil, err
	}
	m, err := surfcomm.ModelFor(models, "SQ")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(e.out, "Figure 7: absolute resource usage, SQ application (p_P=%.0e)\n", e.pp)
	fmt.Fprintln(e.out, strings.Repeat("-", 86))
	fmt.Fprintf(e.out, "%-10s %4s %14s %14s %14s %14s\n",
		"K (1/p_L)", "d", "planar sec", "dd sec", "planar qubits", "dd qubits")
	pts, err := e.tc.Curve(ctx, m, 0, 24, 1)
	if err != nil {
		return nil, err
	}
	records := make([]sweep.CellResult, 0, len(pts))
	for i, dp := range pts {
		records = append(records, e.curveRecord("figure7", m.Name, dp))
		if i%2 != 0 {
			continue
		}
		fmt.Fprintf(e.out, "%-10.1e %4d %14.3e %14.3e %14.3e %14.3e\n",
			dp.TotalOps, dp.Distance, dp.PlanarSeconds, dp.DDSeconds, dp.PlanarQubits, dp.DDQubits)
	}
	fmt.Fprintln(e.out, "Paper: small instances run in under a second; ~1000 physical qubits for modest sizes.")
	return records, nil
}

// curveRecord is the record of one Figure 7/8 design point at -pp.
func (e *env) curveRecord(study, app string, dp surfcomm.DesignPoint) sweep.CellResult {
	return e.perfect(study, fmt.Sprintf("%s/K=%.1e/pp=%.0e", app, dp.TotalOps, e.pp), map[string]float64{
		"distance":         float64(dp.Distance),
		"planar_seconds":   dp.PlanarSeconds,
		"dd_seconds":       dp.DDSeconds,
		"planar_qubits":    dp.PlanarQubits,
		"dd_qubits":        dp.DDQubits,
		"space_time_ratio": dp.SpaceTimeRatio,
	})
}
