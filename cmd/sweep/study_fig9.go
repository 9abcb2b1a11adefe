package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// runFig9 prints Figure 9: the crossover boundary K*(p_P) of every
// reference application across the paper's error-rate axis.
func runFig9(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	models, err := e.appModels(ctx)
	if err != nil {
		return nil, err
	}
	rates := surfcomm.Figure9ErrorRates()
	boundaries, err := e.tc.Boundary(ctx, models, rates)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "Figure 9: crossover boundary K*(p_P) per application")
	fmt.Fprintln(e.out, "(design points under the boundary favor planar codes)")
	fmt.Fprintln(e.out, strings.Repeat("-", 30+12*len(rates)))
	fmt.Fprintf(e.out, "%-18s", "p_P:")
	for _, r := range rates {
		fmt.Fprintf(e.out, " %10.0e", r)
	}
	fmt.Fprintln(e.out)
	var records []sweep.CellResult
	for mi, m := range models {
		fmt.Fprintf(e.out, "%-18s", m.Name)
		for _, pt := range boundaries[mi] {
			k := pt.CrossoverOps
			if pt.OffChart {
				k = -1 // planar favored across the whole K range
				fmt.Fprintf(e.out, " %10s", ">1e24")
			} else {
				fmt.Fprintf(e.out, " %10.1e", pt.CrossoverOps)
			}
			records = append(records, e.perfect("figure9", fmt.Sprintf("%s/pp=%.1e", m.Name, pt.PhysicalError),
				map[string]float64{"crossover_k": k}))
		}
		fmt.Fprintln(e.out)
	}
	fmt.Fprintln(e.out, "Paper: boundaries fall as devices get faultier and sit higher for more")
	fmt.Fprintln(e.out, "parallel applications.")
	return records, nil
}
