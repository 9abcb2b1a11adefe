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
	return sweep.ModelRecords(e.seed, models), nil
}
