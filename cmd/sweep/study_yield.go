package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/sweep"
)

// runYield prints the communication-yield study: braid compiles of one
// application across defect fractions and independent device
// realizations; unroutable realizations are rows, not failures.
func runYield(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	cells, err := sweep.YieldGrid(ctx, e.grid("yield"), sweep.YieldOptions{
		App:       e.app,
		Fractions: e.fracs,
		Clustered: e.clustered,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "Communication yield: braid compiles on defective devices")
	fmt.Fprintln(e.out, strings.Repeat("-", 78))
	fmt.Fprintf(e.out, "%-8s %8s %6s %12s %8s %10s %12s\n",
		"App", "p", "trial", "cycles", "ratio", "adaptive", "p_L(sched)")
	for _, c := range cells {
		if c.Unroutable {
			fmt.Fprintf(e.out, "%-8s %8g %6d %12s\n", c.App, c.DefectFrac, c.Trial, "unroutable")
			continue
		}
		fmt.Fprintf(e.out, "%-8s %8g %6d %12d %8.3f %10d %12.3e\n",
			c.App, c.DefectFrac, c.Trial, c.Cycles, c.Ratio, c.Adaptive, c.LogicalRate)
	}
	fmt.Fprintln(e.out, "Defects stretch schedules (dimension-ordered routes detour via BFS) until")
	fmt.Fprintln(e.out, "the fabric disconnects and compiles fail fast with ErrUnroutable.")
	return sweep.YieldRecords(cells), nil
}
