package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// The modular study behind BENCH_modular.json: for each pipeline size
// N it compiles the N-stage hierarchical workload three ways —
// monolithic (flatten + full compile), cold incremental (every module
// dirty), and warm incremental after a one-leaf edit — and records how
// much compilation the module cache saved.
//
// Two metric families live in each cell:
//
//   - deterministic fields (module counts, cache hits, work-op totals,
//     stitch diagnostics, speedup_work) are pure functions of the
//     program and seed, byte-identical on any machine — the CI drift
//     guard diffs them;
//   - wall_* fields (wall_mono_ms, wall_incr_ms, wall_speedup) are
//     measured on the machine that produced the artifact and are
//     stripped before the drift diff. They are recorded so the
//     committed artifact documents the observed speedup (the guard
//     test asserts >= 5x at N >= 8).
//
// work-ops are resource-bearing gate counts fed to the backend: the
// monolithic path compiles the whole flattened program every edit,
// the incremental path recompiles only the edited module.

// modularSizes are the pipeline widths the study sweeps.
var modularSizes = []int{2, 4, 8, 16}

// modularWallReps is the best-of count for the wall-clock probes.
const modularWallReps = 5

// modularCells computes the study's cells. With measureWall false the
// wall_* metrics are omitted entirely — the guard test regenerates the
// deterministic fields this way and compares them against the
// committed artifact.
func modularCells(ctx context.Context, seed int64, workers int, measureWall bool) ([]sweep.CellResult, error) {
	var cells []sweep.CellResult
	for _, n := range modularSizes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := surfcomm.PipelineProgram(n)
		if err != nil {
			return nil, err
		}
		flat, err := p.Flatten(surfcomm.InlineAll)
		if err != nil {
			return nil, err
		}

		mono, err := surfcomm.NewToolchain(surfcomm.WithSeed(seed), surfcomm.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		inc, err := surfcomm.NewToolchain(surfcomm.WithModular(), surfcomm.WithSeed(seed), surfcomm.WithWorkers(workers))
		if err != nil {
			return nil, err
		}

		// Cold incremental compile: fills the module cache.
		cold, err := inc.CompileIncremental(ctx, surfcomm.BraidBackend{}, p)
		if err != nil {
			return nil, err
		}
		// The edit-recompile under measurement: one leaf module dirty.
		leaf := modularLeaf(n)
		edited, err := surfcomm.MutateModule(p, leaf, 1)
		if err != nil {
			return nil, err
		}
		warm, err := inc.CompileIncremental(ctx, surfcomm.BraidBackend{}, edited)
		if err != nil {
			return nil, err
		}

		workMono := float64(flat.Ops())
		workIncr := 0.0
		for _, name := range warm.Modular.Compiled {
			workIncr += float64(moduleOps(edited.Modules[name]))
		}
		if workIncr == 0 {
			workIncr = 1 // a fully cached recompile still pays the stitch
		}

		metrics := map[string]float64{
			"modules":          float64(len(warm.Modular.Modules)),
			"compiled_cold":    float64(len(cold.Modular.Compiled)),
			"compiled_incr":    float64(len(warm.Modular.Compiled)),
			"module_hits_incr": float64(warm.Modular.Hits),
			"work_mono":        workMono,
			"work_incr":        workIncr,
			"speedup_work":     workMono / workIncr,
			"stitch_phases":    float64(warm.Modular.StitchPhases),
			"cross_braids":     float64(warm.Modular.CrossBraids),
			"cycles":           float64(warm.Cycles),
		}

		if measureWall {
			wallMono, err := bestOf(modularWallReps, func(int) error {
				_, err := mono.Compile(ctx, surfcomm.BraidBackend{}, flat)
				return err
			})
			if err != nil {
				return nil, err
			}
			// Each rep compiles a distinct pre-built variant so every probe
			// recompiles exactly one module against a warm cache, like a
			// real edit-recompile loop (repeating one variant would hit
			// the cache fully and time nothing). The edits themselves
			// happen outside the timer — editing is not compilation.
			variants := make([]*surfcomm.Program, modularWallReps)
			for rep := range variants {
				if variants[rep], err = surfcomm.MutateModule(p, leaf, 2+rep); err != nil {
					return nil, err
				}
			}
			wallIncr, err := bestOf(modularWallReps, func(rep int) error {
				_, err := inc.CompileIncremental(ctx, surfcomm.BraidBackend{}, variants[rep])
				return err
			})
			if err != nil {
				return nil, err
			}
			metrics["wall_mono_ms"] = wallMono
			metrics["wall_incr_ms"] = wallIncr
			if wallIncr > 0 {
				metrics["wall_speedup"] = wallMono / wallIncr
			}
		}

		cells = append(cells, sweep.CellResult{
			Study:   "modular",
			Cell:    fmt.Sprintf("pipeline/N=%d", n),
			Seed:    seed,
			Metrics: metrics,
			Device:  "perfect",
		})
	}
	return cells, nil
}

// modularLeaf names the stage module the study edits: the middle leaf
// (matches internal/apps stage naming for N <= 26).
func modularLeaf(n int) string { return "stage" + string(rune('a'+(n/2)%n)) }

// moduleOps counts a module's resource-bearing local gates — the work
// its recompile sends through the backend.
func moduleOps(m *surfcomm.Module) int {
	ops := 0
	for _, in := range m.Insts {
		if in.Callee == "" && in.Op != surfcomm.OpBarrier {
			ops++
		}
	}
	return ops
}

// bestOf runs fn reps times and returns the fastest wall time in
// milliseconds (best-of filters scheduler noise without averaging in
// cold-start outliers).
func bestOf(reps int, fn func(rep int) error) (float64, error) {
	best := 0.0
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := fn(rep); err != nil {
			return 0, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		if rep == 0 || ms < best {
			best = ms
		}
	}
	return best, nil
}

// runModular prints the incremental-compilation study and returns its
// cells (the BENCH_modular.json payload).
func runModular(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	cells, err := modularCells(ctx, e.seed, e.workers, true)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "Hierarchical incremental compilation: monolithic vs per-module caching")
	fmt.Fprintln(e.out, strings.Repeat("-", 78))
	fmt.Fprintf(e.out, "%-6s %8s %10s %10s %10s %10s %12s\n",
		"N", "modules", "work mono", "work incr", "speedup", "phases", "wall speedup")
	for _, c := range cells {
		m := c.Metrics
		fmt.Fprintf(e.out, "%-6s %8.0f %10.0f %10.0f %9.1fx %10.0f %11.1fx\n",
			strings.TrimPrefix(c.Cell, "pipeline/N="), m["modules"],
			m["work_mono"], m["work_incr"], m["speedup_work"],
			m["stitch_phases"], m["wall_speedup"])
	}
	fmt.Fprintln(e.out, "Editing one leaf recompiles one module; everything else links from cache.")
	return cells, nil
}
