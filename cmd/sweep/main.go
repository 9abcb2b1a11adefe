// Command sweep runs the paper's studies and the repo's extensions of
// them. Each study is one file, study_<name>.go, and one line in the
// registry below; `-study a,b,...` selects studies by name:
//
//	table1   communication-method tradeoffs, measured (Table 1)
//	table2   application characterization and parallelism (Table 2)
//	models   reference-suite app models behind Figures 7-9 (records only)
//	fig6     braid policy grid: ratio, utilization, placement counters;
//	         -app, -d, -local-t, and -verify (replay every schedule)
//	fig7     absolute space and time vs computation size (SQ, -pp)
//	fig8     double-defect:planar ratios and crossover (SQ, IM, -pp)
//	fig9     crossover boundary across physical error rates
//	epr      pipelined EPR distribution window sweep (§8.1)
//	decoder  Monte Carlo error-model validation grid (§2.3,
//	         -decoder-strategy)
//	decode   mwpm vs unionfind parity and work-op crossover
//	modular  monolithic vs per-module incremental compilation
//	yield    braid compiles on defective devices (-app, -defect-frac,
//	         -clustered)
//	calib    square vs heavy-hex coupling, uniform vs calibrated
//	         devices, live-defect survival (-app, -calibration,
//	         -square-only)
//
// With no -study, models, fig7, fig8, fig9 and epr run. Selected
// studies always run in registry order, so `-json FILE` writes their
// machine-readable records (the BENCH_*.json convention) in a fixed
// order: `-json BENCH_sweep.json` with the default set,
// `-study epr,decoder -json BENCH_planar.json`, and one study each for
// BENCH_yield, BENCH_decode, BENCH_calib and BENCH_modular.
//
// The grids evaluate on a worker pool (-workers, default GOMAXPROCS)
// and gather results in cell order before printing, so every report
// and record is byte-identical at any worker count — `-workers 1` is
// the serial reference. `-progress` streams per-cell completions to
// stderr, and an interrupt (Ctrl-C) cancels the run mid-grid. Bad knobs
// — -d below 1, a -defect-frac outside [0,1), an -app outside the
// Figure 6 suite — fail with ErrBadConfig instead of running a
// different study.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"surfcomm"
	"surfcomm/internal/apps"
	"surfcomm/internal/braid"
	"surfcomm/internal/decoder"
	"surfcomm/internal/device"
	"surfcomm/internal/scerr"
	"surfcomm/internal/sweep"
)

// study is one registered report: run prints its text to env.out and
// returns its records.
type study struct {
	name string
	run  func(ctx context.Context, e *env) ([]sweep.CellResult, error)
}

// studies is the registry, in run (and record) order.
var studies = []study{
	{"table1", runTable1},
	{"table2", runTable2},
	{"models", runModels},
	{"fig6", runFig6},
	{"fig7", runFig7},
	{"fig8", runFig8},
	{"fig9", runFig9},
	{"epr", runEPR},
	{"decoder", runDecoder},
	{"decode", runDecode},
	{"modular", runModular},
	{"yield", runYield},
	{"calib", runCalib},
}

const defaultStudies = "models,fig7,fig8,fig9,epr"

// env is what every study runs against: the shared toolchain, the
// grid seed and pool, the report writer, and the study knobs (flags).
type env struct {
	tc       *surfcomm.Toolchain
	seed     int64
	workers  int
	pp       float64
	progress bool
	out      io.Writer

	app         string
	distance    int
	localT      bool
	verify      bool
	strategy    decoder.Strategy
	fracs       []float64
	clustered   bool
	calibration *surfcomm.Calibration
	squareOnly  bool

	models []surfcomm.AppModel // characterized on first use
}

// newToolchain builds the run's shared toolchain from the env's seed,
// pool, and physical error rate.
func (e *env) newToolchain() (err error) {
	opts := []surfcomm.ToolchainOption{
		surfcomm.WithSeed(e.seed),
		surfcomm.WithWorkers(e.workers),
		surfcomm.WithTechnology(surfcomm.Superconducting(e.pp)),
	}
	if e.progress {
		opts = append(opts, surfcomm.WithProgress(func(ev surfcomm.Event) {
			log.Printf("%s %s (%d/%d)", ev.Stage, ev.Cell, ev.Index+1, ev.Total)
		}))
	}
	e.tc, err = surfcomm.NewToolchain(opts...)
	return err
}

// grid returns the worker-pool options for one study's grid.
func (e *env) grid(stage string) sweep.Options {
	opt := sweep.Options{Workers: e.workers, Seed: e.seed}
	if e.progress {
		opt.Progress = func(i, total int) { log.Printf("%s cell%d (%d/%d)", stage, i, i+1, total) }
	}
	return opt
}

// appModels characterizes the reference suite once per run.
func (e *env) appModels(ctx context.Context) ([]surfcomm.AppModel, error) {
	if e.models == nil {
		models, err := e.tc.Models(ctx)
		if err != nil {
			return nil, err
		}
		e.models = models
	}
	return e.models, nil
}

// perfect is an ideal-grid record: it ran on the "perfect" device under
// the run's seed.
func (e *env) perfect(study, cell string, metrics map[string]float64) sweep.CellResult {
	return sweep.CellResult{Study: study, Cell: cell, Seed: e.seed, Metrics: metrics, Device: device.PresetPerfect}
}

// runCells evaluates a study's cells on the worker pool; each cell
// returns its records and its report text. The study's report and
// records are then written in cell order, which keeps both
// byte-identical at any worker count.
func runCells[I any](ctx context.Context, e *env, stage string, items []I, fn func(i int, item I) ([]sweep.CellResult, string, error)) ([]sweep.CellResult, error) {
	type output struct {
		records []sweep.CellResult
		text    string
	}
	outs, err := sweep.Map(ctx, e.grid(stage), items, func(i int, item I) (output, error) {
		records, text, err := fn(i, item)
		return output{records, text}, err
	})
	if err != nil {
		return nil, err
	}
	var records []sweep.CellResult
	for _, o := range outs {
		io.WriteString(e.out, o.text)
		records = append(records, o.records...)
	}
	return records, nil
}

// workload resolves an application name case-insensitively over the
// Figure 6 suite; an unknown name fails with ErrBadConfig listing the
// valid ones.
func workload(name string) (apps.Workload, error) {
	var names []string
	for _, w := range apps.Fig6Suite() {
		if strings.EqualFold(w.Name, name) {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return apps.Workload{}, scerr.BadConfig("unknown app %q (valid: %s)", name, strings.Join(names, ", "))
}

// braidOnDevice runs the Policy-6 braid compile of w under the run's
// seed on the device (and live defects) cfg names. A compile the device
// cannot route — endpoints cut off by defects, or a fabric disconnected
// mid-schedule — reports unroutable with a zero result instead of
// failing the grid.
func (e *env) braidOnDevice(ctx context.Context, w apps.Workload, cfg braid.Config) (r braid.Result, unroutable bool, err error) {
	cfg.Seed = e.seed
	r, err = braid.SimulateContext(ctx, w.Circuit, braid.Policy6, cfg)
	if errors.Is(err, scerr.ErrUnroutable) {
		return braid.Result{}, true, nil
	}
	return r, false, err
}

// scheduleLogicalRate estimates the probability of at least one logical
// error over a braid schedule: tiles × cycles × the per-tile rate,
// capped at 1 — longer schedules accumulate more logical error.
func scheduleLogicalRate(r braid.Result, perTile float64) float64 {
	if lr := float64(r.Tiles) * float64(r.ScheduleCycles) * perTile; lr < 1 {
		return lr
	}
	return 1
}

// validate rejects knobs no study can run with, the way the service
// rejects a bad target or device: -d below 1, and defect fractions
// outside [0,1) or NaN.
func (e *env) validate() error {
	if e.distance < 1 {
		return scerr.BadConfig("-d %d < 1", e.distance)
	}
	for _, f := range e.fracs {
		if !(f >= 0 && f < 1) {
			return scerr.BadConfig("-defect-frac %g outside [0,1)", f)
		}
	}
	return nil
}

// selectStudies resolves a comma-separated -study list to registry
// entries in registry order.
func selectStudies(list string) ([]study, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		want[strings.TrimSpace(name)] = true
	}
	var out []study
	for _, s := range studies {
		if want[s.name] {
			out = append(out, s)
			delete(want, s.name)
		}
	}
	for name := range want {
		return nil, fmt.Errorf("unknown study %q (valid: %s)", name, studyNames())
	}
	return out, nil
}

func studyNames() string {
	names := make([]string, len(studies))
	for i, s := range studies {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// countingWriter counts the bytes a study prints, so reports are
// separated by one blank line and silent studies add none.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// runStudies validates the knobs, then runs the selected studies in
// order and concatenates their records.
func runStudies(ctx context.Context, e *env, selected []study) ([]sweep.CellResult, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	out := &countingWriter{w: e.out}
	e.out = out
	var records []sweep.CellResult
	printed := false
	for _, s := range selected {
		if printed {
			fmt.Fprintln(out)
		}
		start := out.n
		recs, err := s.run(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		records = append(records, recs...)
		printed = out.n > start
	}
	return records, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	e := &env{out: os.Stdout}
	studyList := flag.String("study", defaultStudies, "comma-separated studies to run: "+studyNames())
	flag.StringVar(&e.app, "app", "", "application for fig6 (default all), yield and calib (default GSE)")
	flag.IntVar(&e.distance, "d", 9, "fig6: surface code distance")
	flag.BoolVar(&e.localT, "local-t", false, "fig6 ablation: magic states pre-delivered (T gates local)")
	flag.BoolVar(&e.verify, "verify", false, "fig6: record each static schedule and replay-validate it")
	decStrategy := flag.String("decoder-strategy", "", "decoding strategy for the decoder study: mwpm or unionfind (default mwpm)")
	defectFrac := flag.String("defect-frac", "", "comma-separated defect fractions for the yield study (default 0,0.02,0.05)")
	flag.BoolVar(&e.clustered, "clustered", false, "yield: clustered defects instead of random yield")
	calibPath := flag.String("calibration", "", "calib: calibration snapshot JSON (default: synthetic per-cell snapshots)")
	flag.BoolVar(&e.squareOnly, "square-only", false, "calib: drop the heavy-hex rows")
	flag.Float64Var(&e.pp, "pp", 1e-8, "physical error rate for fig7 and fig8")
	flag.Int64Var(&e.seed, "seed", 1, "base seed (characterization, layout, per-cell derivation)")
	flag.IntVar(&e.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	jsonPath := flag.String("json", "", "write per-cell results to this JSON file (e.g. BENCH_sweep.json)")
	flag.BoolVar(&e.progress, "progress", false, "stream per-cell completions to stderr")
	flag.Parse()

	selected, err := selectStudies(*studyList)
	if err != nil {
		log.Fatal(err)
	}
	if err := e.newToolchain(); err != nil {
		log.Fatal(err)
	}
	if *decStrategy != "" && *decStrategy != decoder.StrategyMWPM {
		// The default stays nil so MWPM records keep an empty strategy.
		if e.strategy, err = decoder.StrategyByName(*decStrategy); err != nil {
			log.Fatal(err)
		}
	}
	if e.fracs, err = parseFracs(*defectFrac); err != nil {
		log.Fatal(err)
	}
	if *calibPath != "" {
		f, err := os.Open(*calibPath)
		if err != nil {
			log.Fatal(err)
		}
		e.calibration, err = surfcomm.LoadCalibration(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	records, err := runStudies(ctx, e, selected)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonPath != "" {
		if err := sweep.WriteRecordsFile(*jsonPath, records); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d cells to %s", len(records), *jsonPath)
	}
}

// parseFracs parses the -defect-frac list; empty selects the yield
// study's defaults. Range checks are validate's.
func parseFracs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -defect-frac %q: %v", part, err)
		}
		out = append(out, f)
	}
	return out, nil
}
