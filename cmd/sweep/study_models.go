package main

import (
	"context"

	"surfcomm/internal/sweep"
)

// runModels characterizes the reference suite (the app models behind
// Figures 7-9) and records each model; it prints nothing.
func runModels(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	models, err := e.appModels(ctx)
	if err != nil {
		return nil, err
	}
	records := make([]sweep.CellResult, 0, len(models))
	for _, m := range models {
		records = append(records, e.perfect("characterization", m.Name, map[string]float64{
			"parallelism":       m.Parallelism,
			"sched_parallelism": m.SchedParallelism,
			"move_fraction":     m.MoveFraction,
			"congestion_dd":     m.CongestionDD,
		}))
	}
	return records, nil
}
