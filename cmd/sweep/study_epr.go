package main

import (
	"context"
	"fmt"

	"surfcomm/internal/sweep"
	"surfcomm/internal/teleport"
)

// runEPR prints the §8.1 study: per application, live EPR qubits and
// teleport stalls across look-ahead windows, and the just-in-time
// window's savings over prefetch-all.
func runEPR(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	fmt.Fprintln(e.out, "§8.1: pipelined EPR distribution — look-ahead window sweep")
	cells, err := sweep.EPRWindows(ctx, e.grid("epr"), teleport.Config{Distance: 9})
	if err != nil {
		return nil, err
	}
	for _, c := range cells {
		fmt.Fprintf(e.out, "\n%s (%d moves, %d timesteps)\n", c.Name, c.Moves, c.Timesteps)
		fmt.Fprintf(e.out, "%-14s %12s %12s %12s\n", "window", "peak live", "stall cyc", "overhead %")
		for _, r := range c.Rows {
			fmt.Fprintf(e.out, "%-14s %12d %12d %12.1f\n",
				sweep.EPRWindowLabel(r.WindowCycles), r.PeakLiveEPR, r.StallCycles, 100*r.LatencyOverhead)
		}
		flood := c.Rows[len(c.Rows)-1]
		jitRes := c.Rows[c.JITIndex]
		if jitRes.PeakLiveEPR > 0 {
			fmt.Fprintf(e.out, "JIT vs prefetch-all: %.1fx fewer live EPR qubits at %.1f%% latency overhead\n",
				float64(flood.PeakLiveEPR)/float64(jitRes.PeakLiveEPR), 100*jitRes.LatencyOverhead)
		}
	}
	fmt.Fprintln(e.out, "\nPaper: up to ~24x qubit savings at <= ~4% extra latency.")
	return sweep.EPRRecords(e.seed, cells), nil
}
