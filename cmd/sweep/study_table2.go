package main

import (
	"context"
	"fmt"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// runTable2 prints Table 2: per-application logical resources and the
// parallelism factor, measured by the compilation frontend.
func runTable2(ctx context.Context, e *env) ([]sweep.CellResult, error) {
	workloads := surfcomm.Table2Suite()
	estimates, err := e.tc.Estimate(ctx, workloads)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(e.out, "Table 2: benchmark applications (measured)")
	fmt.Fprintln(e.out, "------------------------------------------------------------------------------------------")
	fmt.Fprintf(e.out, "%-8s %-10s %-10s %-10s %-10s %-12s %s\n",
		"App", "Qubits", "Ops", "T-count", "2q ops", "Depth", "Parallelism")
	records := make([]sweep.CellResult, 0, len(workloads))
	for i, w := range workloads {
		est := estimates[i]
		fmt.Fprintf(e.out, "%-8s %-10d %-10d %-10d %-10d %-12d %.1f\n",
			w.Name, est.LogicalQubits, est.LogicalOps, est.TCount, est.TwoQubitOps, est.CriticalPath, est.Parallelism)
		records = append(records, e.perfect("table2", w.Name, map[string]float64{
			"qubits":      float64(est.LogicalQubits),
			"ops":         float64(est.LogicalOps),
			"t_count":     float64(est.TCount),
			"two_q_ops":   float64(est.TwoQubitOps),
			"depth":       float64(est.CriticalPath),
			"parallelism": est.Parallelism,
		}))
	}
	fmt.Fprintln(e.out)
	fmt.Fprintln(e.out, "Paper's parallelism factors: GSE 1.2, SQ 1.5, SHA-1 29, IM 66.")
	return records, nil
}
