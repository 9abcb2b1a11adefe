package main

import (
	"context"
	"fmt"

	"surfcomm"
	"surfcomm/internal/simd"
	"surfcomm/internal/sweep"
	"surfcomm/internal/teleport"
)

// runTable1 measures the defining properties of the two communication
// methods (Table 1): braid latency is distance-independent (low time)
// but braids claim whole routes and bigger tiles (high space, not
// prefetchable); teleportation transit grows with distance (high time)
// but vanishes under EPR prefetch.
func runTable1(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	const d = 9

	braidCycles := func(cols, a, b int) (int64, error) {
		c := surfcomm.NewCircuit("pair", cols)
		c.Append(surfcomm.OpCNOT, a, b)
		place := surfcomm.RowMajorPlacement(cols)
		plan, err := e.tc.Compile(ctx, surfcomm.BraidBackend{}, c, func(t *surfcomm.Target) {
			t.Distance = d
			t.Policy = surfcomm.Policy1
			t.Placement = place
		})
		if err != nil {
			return 0, err
		}
		return plan.Cycles, nil
	}
	nearBraid, err := braidCycles(8, 0, 1)
	if err != nil {
		return nil, err
	}
	farBraid, err := braidCycles(8, 0, 7)
	if err != nil {
		return nil, err
	}

	// The EPR factory sits at the bottom-right of the region grid; a
	// "near" pair adjoins it, a "far" pair sits at the opposite corner.
	teleportStall := func(from, to int, window int64) (int64, error) {
		sched := &simd.Schedule{
			Config:    simd.Config{Regions: 16, Width: 8},
			Timesteps: 8,
			Moves:     []simd.Move{{Timestep: 5, Qubit: 0, From: from, To: to}},
		}
		r, err := teleport.DistributeContext(ctx, sched, window, teleport.Config{Distance: d})
		if err != nil {
			return 0, err
		}
		return r.StallCycles, nil
	}
	nearTele, err := teleportStall(14, 15, 0)
	if err != nil {
		return nil, err
	}
	farTele, err := teleportStall(0, 1, 0)
	if err != nil {
		return nil, err
	}
	hiddenTele, err := teleportStall(0, 1, teleport.PrefetchAll)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(e.out, "Table 1: communication-method tradeoffs (measured, d = %d)\n", d)
	fmt.Fprintln(e.out, "----------------------------------------------------------------------")
	fmt.Fprintf(e.out, "%-14s %-22s %-28s %s\n", "Method", "Space (qubits/tile)", "Time (EC cycles)", "Prefetchable?")
	fmt.Fprintf(e.out, "%-14s %-22d transit near=%-3d far=%-6d yes (JIT stall=%d)\n",
		"Teleportation", surfcomm.PlanarTileQubits(d), nearTele, farTele, hiddenTele)
	fmt.Fprintf(e.out, "%-14s %-22d braid   near=%-3d far=%-6d no (claims whole route)\n",
		"Braiding", surfcomm.DoubleDefectTileQubits(d), nearBraid, farBraid)
	fmt.Fprintln(e.out)
	fmt.Fprintln(e.out, "Planar/teleport: low space, distance-dependent latency, prefetchable.")
	fmt.Fprintln(e.out, "Double-defect/braid: high space, distance-independent latency, not prefetchable.")

	return []sweep.CellResult{
		e.perfect("table1", "teleportation", map[string]float64{
			"tile_qubits": float64(surfcomm.PlanarTileQubits(d)),
			"near_cycles": float64(nearTele),
			"far_cycles":  float64(farTele),
			"jit_stall":   float64(hiddenTele),
		}),
		e.perfect("table1", "braiding", map[string]float64{
			"tile_qubits": float64(surfcomm.DoubleDefectTileQubits(d)),
			"near_cycles": float64(nearBraid),
			"far_cycles":  float64(farBraid),
		}),
	}, nil
}
