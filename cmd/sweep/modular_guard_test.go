package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"surfcomm/internal/sweep"
)

// TestBenchModularDriftAndSpeedup drift-guards the committed
// BENCH_modular.json on two axes:
//
//   - the deterministic metrics (module counts, cache hits, work-op
//     totals, stitch diagnostics) must exactly match an in-process
//     regeneration at the committed seed — any difference means the
//     incremental pipeline's science moved without the artifact being
//     regenerated;
//   - the recorded wall_* metrics belong to the machine that produced
//     the artifact and are not regenerated here, but the committed
//     wall_speedup must uphold the acceptance contract: >= 5x over
//     monolithic at every N >= 8.
func TestBenchModularDriftAndSpeedup(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_modular.json")
	if err != nil {
		t.Fatalf("committed artifact missing: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var committed []sweep.CellResult
	if err := dec.Decode(&committed); err != nil {
		t.Fatalf("BENCH_modular.json no longer matches the sweep record schema: %v", err)
	}
	if len(committed) != len(modularSizes) {
		t.Fatalf("artifact has %d cells, study sweeps %d sizes", len(committed), len(modularSizes))
	}

	seed := committed[0].Seed
	regen, err := modularCells(context.Background(), seed, 0, false)
	if err != nil {
		t.Fatalf("regenerating study: %v", err)
	}

	for i, want := range committed {
		got := regen[i]
		if got.Study != want.Study || got.Cell != want.Cell || got.Seed != want.Seed || got.Device != want.Device {
			t.Errorf("cell %d identity drifted: committed %s/%s, regenerated %s/%s",
				i, want.Study, want.Cell, got.Study, got.Cell)
			continue
		}
		// Deterministic fields must match exactly; wall_* fields exist
		// only in the committed artifact.
		for key, cv := range want.Metrics {
			if strings.HasPrefix(key, "wall_") {
				continue
			}
			gv, ok := got.Metrics[key]
			if !ok {
				t.Errorf("%s: committed metric %q not regenerated", want.Cell, key)
				continue
			}
			if math.Abs(gv-cv) > 1e-9 {
				t.Errorf("%s: metric %q drifted: committed %g, regenerated %g", want.Cell, key, cv, gv)
			}
		}
		for key := range got.Metrics {
			if _, ok := want.Metrics[key]; !ok {
				t.Errorf("%s: regenerated metric %q missing from the committed artifact", want.Cell, key)
			}
		}

		// Acceptance contract: the committed run must document >= 5x
		// wall-clock speedup (and >= 5x work-op speedup) at N >= 8.
		n := want.Metrics["modules"] - 1
		if n >= 8 {
			if ws := want.Metrics["wall_speedup"]; ws < 5 {
				t.Errorf("%s: committed wall_speedup %.2f < 5 at N=%.0f", want.Cell, ws, n)
			}
			if sw := want.Metrics["speedup_work"]; sw < 5 {
				t.Errorf("%s: speedup_work %.2f < 5 at N=%.0f", want.Cell, sw, n)
			}
		}
		// A one-leaf edit must have recompiled exactly one module.
		if ci := want.Metrics["compiled_incr"]; ci != 1 {
			t.Errorf("%s: leaf edit recompiled %.0f modules, want 1", want.Cell, ci)
		}
	}
}
