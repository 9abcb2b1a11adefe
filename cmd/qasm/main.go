// Command qasm emits the benchmark applications in the toolchain's flat
// QASM dialect for inspection or interchange, or parses a QASM file and
// reports its frontend statistics.
//
//	qasm -app IM -n 16 -steps 1 > im.qasm
//	qasm -stats im.qasm
//
// Like the other commands, it takes the unified -seed/-json flags:
// `-json FILE` writes the frontend-statistics record of the generated
// circuit (or of every -stats file) in the BENCH_*.json cell format,
// stamped with -seed. A malformed size (e.g. an odd -n for SQ) exits 1
// with the validation error instead of crashing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"surfcomm"
	"surfcomm/internal/sweep"
)

// validApps names the -app values in help order.
const validApps = "GSE, SQ, SHA-1, IM, IM-semi"

func main() {
	log.SetFlags(0)
	log.SetPrefix("qasm: ")
	app := flag.String("app", "", "application to emit: "+validApps)
	n := flag.Int("n", 8, "problem size (GSE molecule size, SQ bits, IM spins)")
	steps := flag.Int("steps", 1, "Trotter steps (GSE, IM)")
	iters := flag.Int("iters", 1, "Grover iterations (SQ)")
	rounds := flag.Int("rounds", 1, "compression rounds (SHA-1)")
	width := flag.Int("width", 16, "word width (SHA-1)")
	stats := flag.Bool("stats", false, "read QASM files from args and print frontend statistics")
	seed := flag.Int64("seed", 1, "seed stamped into -json records")
	jsonPath := flag.String("json", "", "write frontend-statistics records to this JSON file")
	flag.Parse()

	var records []sweep.CellResult

	if *stats {
		if flag.NArg() == 0 {
			log.Fatal("-stats needs at least one QASM file")
		}
		for _, path := range flag.Args() {
			est, err := fileStats(path)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s: %s\n", path, est)
			// Key the cell by file path: circuit names are optional in
			// QASM (and may collide across files).
			records = append(records, record(*seed, path, est))
		}
	} else {
		c, err := generate(*app, *n, *steps, *iters, *rounds, *width)
		if err != nil {
			log.Fatal(err)
		}
		if err := surfcomm.WriteQASM(os.Stdout, c); err != nil {
			log.Fatal(err)
		}
		if *jsonPath != "" {
			est, err := surfcomm.EstimateCircuit(c)
			if err != nil {
				log.Fatal(err)
			}
			records = append(records, record(*seed, est.Name, est))
		}
	}

	if *jsonPath != "" {
		if err := sweep.WriteRecordsFile(*jsonPath, records); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d records to %s", len(records), *jsonPath)
	}
}

// generate builds the selected application through the validating
// constructors, so a malformed size returns an error (exit 1) instead
// of panicking.
func generate(app string, n, steps, iters, rounds, width int) (*surfcomm.Circuit, error) {
	switch strings.ToUpper(app) {
	case "GSE":
		return surfcomm.NewGSE(surfcomm.GSEConfig{M: n, Steps: steps})
	case "SQ":
		return surfcomm.NewSQ(surfcomm.SQConfig{N: n, Iters: iters})
	case "SHA-1", "SHA1":
		return surfcomm.NewSHA1(surfcomm.SHA1Config{Rounds: rounds, WordWidth: width})
	case "IM":
		return surfcomm.NewIsing(surfcomm.IsingConfig{N: n, Steps: steps}, true)
	case "IM-SEMI":
		return surfcomm.NewIsing(surfcomm.IsingConfig{N: n, Steps: steps}, false)
	case "":
		return nil, fmt.Errorf("choose an application with -app (%s)", validApps)
	}
	return nil, fmt.Errorf("unknown application %q (valid: %s)", app, validApps)
}

func fileStats(path string) (surfcomm.Estimate, error) {
	f, err := os.Open(path)
	if err != nil {
		return surfcomm.Estimate{}, err
	}
	defer f.Close()
	c, err := surfcomm.ReadQASM(f)
	if err != nil {
		return surfcomm.Estimate{}, fmt.Errorf("%s: %w", path, err)
	}
	est, err := surfcomm.EstimateCircuit(c)
	if err != nil {
		return surfcomm.Estimate{}, fmt.Errorf("%s: %w", path, err)
	}
	return est, nil
}

// record converts a frontend estimate to the shared cell format.
func record(seed int64, cell string, est surfcomm.Estimate) sweep.CellResult {
	return sweep.CellResult{
		Study:  "frontend",
		Cell:   cell,
		Seed:   seed,
		Device: "perfect",
		Metrics: map[string]float64{
			"logical_qubits": float64(est.LogicalQubits),
			"logical_ops":    float64(est.LogicalOps),
			"t_count":        float64(est.TCount),
			"two_qubit_ops":  float64(est.TwoQubitOps),
			"critical_path":  float64(est.CriticalPath),
			"parallelism":    est.Parallelism,
		},
	}
}
