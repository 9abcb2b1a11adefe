package main

import (
	"context"
	"fmt"
	"strings"

	"surfcomm/internal/apps"
	"surfcomm/internal/simd"
	"surfcomm/internal/sweep"
	"surfcomm/internal/teleport"
)

// runEPR prints the §8.1 study: per application, live EPR qubits and
// teleport stalls across look-ahead windows, and the just-in-time
// window's savings over prefetch-all. Each application is one cell: it
// schedules the circuit on the Multi-SIMD machine and sweeps windows
// around the JIT heuristic.
func runEPR(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	fmt.Fprintln(e.out, "§8.1: pipelined EPR distribution — look-ahead window sweep")
	cfg := teleport.Config{Distance: 9}
	records, err := runCells(ctx, e, "epr", apps.Fig6Suite(), func(_ int, w apps.Workload) ([]sweep.CellResult, string, error) {
		sched, err := simd.RunContext(ctx, w.Circuit, simd.ConfigFor(w.Circuit.NumQubits, e.seed))
		if err != nil {
			return nil, "", err
		}
		jit := teleport.JITWindow(sched, cfg)
		windows := []int64{0, jit / 4, jit / 2, jit, 2 * jit, 8 * jit, teleport.PrefetchAll}
		rows, err := teleport.SweepWindowsContext(ctx, sched, windows, cfg)
		if err != nil {
			return nil, "", err
		}
		var b strings.Builder
		var records []sweep.CellResult
		fmt.Fprintf(&b, "\n%s (%d moves, %d timesteps)\n", w.Name, len(sched.Moves), sched.Timesteps)
		fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "window", "peak live", "stall cyc", "overhead %")
		for _, r := range rows {
			label := fmt.Sprint(r.WindowCycles)
			if r.WindowCycles == teleport.PrefetchAll {
				label = "prefetch-all"
			}
			fmt.Fprintf(&b, "%-14s %12d %12d %12.1f\n", label, r.PeakLiveEPR, r.StallCycles, 100*r.LatencyOverhead)
			records = append(records, e.perfect("epr", w.Name+"/window="+label, map[string]float64{
				"peak_live_epr":    float64(r.PeakLiveEPR),
				"stall_cycles":     float64(r.StallCycles),
				"latency_overhead": r.LatencyOverhead,
			}))
		}
		flood, jitRes := rows[len(rows)-1], rows[3] // windows[3] is jit
		if jitRes.PeakLiveEPR > 0 {
			fmt.Fprintf(&b, "JIT vs prefetch-all: %.1fx fewer live EPR qubits at %.1f%% latency overhead\n",
				float64(flood.PeakLiveEPR)/float64(jitRes.PeakLiveEPR), 100*jitRes.LatencyOverhead)
		}
		return records, b.String(), nil
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "\nPaper: up to ~24x qubit savings at <= ~4% extra latency.")
	return records, nil
}
