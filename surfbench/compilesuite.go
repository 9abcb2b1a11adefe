package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"surfcomm"
	"surfcomm/internal/braid"
	"surfcomm/internal/layout"
	"surfcomm/internal/resource"
	"surfcomm/internal/simd"
	"surfcomm/internal/teleport"
)

// compile-suite: one client compiles the four Figure 6 applications on
// the braid, planar and surgery backends in sequence, at Policy 6,
// d=9, on a perfect device — the paper's own toolflow. The workload
// seed shuffles the cell order of every pass; the circuits and the
// compile target are the paper's, so every seed must reproduce the
// pinned results.

// expectedSuite pins cycles, communication ops and physical qubits of
// every cell at the default toolchain seed. It is a regression guard;
// the independent oracle is the schedule replay in the check pass.
//
//go:embed expected_compile_suite.json
var expectedSuite []byte

// cellResult is the part of a plan the pinned file records.
type cellResult struct {
	App            string  `json:"app"`
	Backend        string  `json:"backend"`
	Cycles         int64   `json:"cycles"`
	CommOps        int64   `json:"comm_ops"`
	PhysicalQubits float64 `json:"physical_qubits"`
}

func (r cellResult) key() string { return r.App + "/" + r.Backend }

type suiteCell struct {
	app     string
	circ    *surfcomm.Circuit
	backend surfcomm.Backend
}

func (c suiteCell) key() string { return c.app + "/" + c.backend.Name() }

// suiteSlices is how many turns a cell's share of the run is cut into.
const suiteSlices = 8

// suiteBackends is the paper's comparison order.
var suiteBackends = []surfcomm.Backend{surfcomm.BraidBackend{}, surfcomm.PlanarBackend{}, surfcomm.SurgeryBackend{}}

func newSuite() []suiteCell {
	var cells []suiteCell
	for _, w := range surfcomm.Fig6Suite() {
		for _, b := range suiteBackends {
			cells = append(cells, suiteCell{app: w.Name, circ: w.Circuit, backend: b})
		}
	}
	return cells
}

func loadExpected() (map[string]cellResult, error) {
	var rows []cellResult
	if err := json.Unmarshal(expectedSuite, &rows); err != nil {
		return nil, fmt.Errorf("expected_compile_suite.json: %w", err)
	}
	out := map[string]cellResult{}
	for _, r := range rows {
		out[r.key()] = r
	}
	return out, nil
}

func summarizeCell(c suiteCell, p surfcomm.Plan) cellResult {
	return cellResult{App: c.app, Backend: c.backend.Name(), Cycles: p.Cycles, CommOps: p.CommOps, PhysicalQubits: p.PhysicalQubits}
}

func runCompileSuite(cfg config) (*outcome, error) {
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return traceCompileSuite(cfg, expected)
	}
	o := newOutcome()
	type suite struct {
		cells []suiteCell
		tc    *surfcomm.Toolchain
	}
	s, setup, err := setUpRepeated(func() (suite, func(), error) {
		tc, err := surfcomm.NewToolchain()
		return suite{newSuite(), tc}, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	cells, tc := s.cells, s.tc

	// The cells take turns, in a seeded order each round. On its turn a
	// cell compiles back to back for one slice (at least once) until it
	// has used its equal share of the run, so cheap cells collect
	// hundreds of samples and the multi-second ones one or two. A host
	// disturbance shorter than the run then falls on a part of every
	// cell's samples, which the cell medians absorb, rather than on all
	// samples of the few cells whose turn it was.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	share := cfg.seconds / time.Duration(len(cells))
	slice := share / suiteSlices
	used := make([]time.Duration, len(cells))
	times := map[string][]float64{}
	win, err := startWindow()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// compile times one compile of c and checks it against the pinned
	// results; false means the cell is broken and takes no more turns.
	compile := func(c suiteCell) bool {
		o.attempted++
		t0 := time.Now()
		plan, err := tc.Compile(ctx, c.backend, c.circ)
		d := time.Since(t0)
		if err != nil {
			o.failed++
			o.mismatch("%s: %v", c.key(), err)
			return false
		}
		times[c.key()] = append(times[c.key()], ms(d))
		if got, want := summarizeCell(c, plan), expected[c.key()]; got != want {
			o.mismatch("%s: got %+v, pinned %+v", c.key(), got, want)
			return false
		}
		return true
	}
	for turns := true; turns; {
		turns = false
		for _, i := range rng.Perm(len(cells)) {
			if used[i] >= share {
				continue
			}
			turns = true
			t0 := time.Now()
			end := t0.Add(min(slice, share-used[i]))
			ok := compile(cells[i])
			for ok && time.Now().Before(end) {
				ok = compile(cells[i])
			}
			used[i] += time.Since(t0)
			if !ok {
				used[i] = share
			}
		}
	}
	elapsed := time.Since(start)
	if err := win.end(o); err != nil {
		return nil, err
	}
	checkSuiteReplay(ctx, o, tc, cells, expected)

	var medians, p90s []float64
	perBackend := map[string][]float64{}
	cellMedians := map[string]float64{}
	samples := map[string]int{}
	suiteSeconds := 0.0
	for _, c := range cells {
		ts := times[c.key()]
		if len(ts) == 0 {
			continue
		}
		m := median(ts)
		cellMedians[c.key()] = m
		samples[c.key()] = len(ts)
		suiteSeconds += m / 1000
		medians = append(medians, m)
		p90s = append(p90s, tailAt(ts, 90))
		perBackend[c.backend.Name()] = append(perBackend[c.backend.Name()], m)
	}
	o.metrics["setup_s"] = setup
	// One client compiles one cell at a time, so its throughput is the
	// inverse of the typical compile. (A suite pass, printed as
	// suite_pass_s, is dominated by one ~4 s SHA-1 surgery compile,
	// sampled once per run: too noisy to gate.)
	o.metrics["ops_per_s"] = 1000 / geomean(medians)
	o.metrics["op_p50_ms"] = geomean(medians)
	o.metrics["op_tail_ms"] = geomean(p90s)
	for _, b := range suiteBackends {
		o.report[b.Name()+"_compile_ms"] = geomean(perBackend[b.Name()])
	}
	o.report["cell_median_ms"] = cellMedians
	o.report["cell_samples"] = samples
	o.report["elapsed_s"] = elapsed.Seconds()
	o.report["suite_pass_s"] = suiteSeconds
	o.report["rules"] = "op_p50_ms: geometric mean over cells of each cell's median compile; " +
		"op_tail_ms: the same over each cell's p90; ops_per_s: 1000 / op_p50_ms"
	return o, nil
}

// checkSuiteReplay is the untimed check pass: every braid and surgery
// cell compiles again with its static schedule recorded, and the
// independent replay validator must accept the schedule.
func checkSuiteReplay(ctx context.Context, o *outcome, tc *surfcomm.Toolchain, cells []suiteCell, expected map[string]cellResult) {
	record := func(t *surfcomm.Target) { t.RecordSchedule = true }
	for _, c := range cells {
		if c.backend.Name() == "planar" {
			continue
		}
		plan, err := tc.Compile(ctx, c.backend, c.circ, record)
		if err != nil {
			o.mismatch("%s: recorded compile: %v", c.key(), err)
			continue
		}
		if plan.Cycles != expected[c.key()].Cycles {
			o.mismatch("%s: recorded compile took %d cycles, pinned %d", c.key(), plan.Cycles, expected[c.key()].Cycles)
		}
		if err := surfcomm.ReplayBraidSchedule(c.circ, plan.Braid.Arch, plan.Braid.Schedule); err != nil {
			o.mismatch("%s: schedule replay: %v", c.key(), err)
		}
	}
}

// traceCompileSuite replays the suite through the layers a compile
// runs — DAG build, placement, braid simulation at that fixed
// placement, SIMD scheduling, JIT window and EPR distribution — one
// call at a time, in passes, until the run's time is up.
func traceCompileSuite(cfg config, expected map[string]cellResult) (*outcome, error) {
	o := newOutcome()
	tr := newTracer()
	o.tracers["compile-suite"] = tr
	ctx := context.Background()
	apps := surfcomm.Fig6Suite()
	rng := rand.New(rand.NewSource(cfg.seed))
	const seed = 1 // the toolchain default the pinned results use
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		for _, i := range rng.Perm(len(apps)) {
			w := apps[i]
			c := w.Circuit
			root := tr.Open("suite.app", 0, pass)
			call := func(name string, fn func() error) {
				o.attempted++
				if _, err := tr.Time(name, root, pass, fn); err != nil {
					o.failed++
					o.mismatch("%s %s: %v", w.Name, name, err)
				}
			}
			call("resource.dag", func() error { _, err := resource.Build(c); return err })
			var place *layout.Placement
			call("layout.place", func() (err error) {
				place, err = layout.OptimizedOn(braid.InteractionGraph(c), seed, nil)
				return err
			})
			for _, surgery := range []bool{false, true} {
				name := "braid"
				if surgery {
					name = "surgery"
				}
				var res braid.Result
				call("braid.simulate."+name, func() (err error) {
					res, err = braid.SimulateContext(ctx, c, braid.Policy6, braid.Config{Distance: 9, Seed: seed, Placement: place, Surgery: surgery})
					return err
				})
				want := expected[w.Name+"/"+name]
				if res.ScheduleCycles != want.Cycles || res.BraidsPlaced != want.CommOps {
					o.mismatch("%s/%s: fixed-placement replay gave %d cycles, %d braids; untraced compile %d, %d",
						w.Name, name, res.ScheduleCycles, res.BraidsPlaced, want.Cycles, want.CommOps)
				}
				if pass == 0 {
					o.metrics["braid.braids_placed."+name] += float64(res.BraidsPlaced)
					o.metrics["braid.adaptive_routes."+name] += float64(res.AdaptiveRoutes)
					o.metrics["braid.reinjections."+name] += float64(res.Reinjections)
					o.metrics["braid.schedule_cycles."+name] += float64(res.ScheduleCycles)
				}
			}
			var sched *simd.Schedule
			call("simd.schedule", func() (err error) {
				sched, err = simd.RunContext(ctx, c, simd.ConfigFor(c.NumQubits, seed))
				return err
			})
			if sched == nil {
				tr.Close(root)
				continue
			}
			tcfg := teleport.Config{Distance: 9}
			var window int64
			call("teleport.jit_window", func() error { window = teleport.JITWindow(sched, tcfg); return nil })
			var epr teleport.Result
			call("teleport.distribute", func() (err error) {
				epr, err = teleport.DistributeContext(ctx, sched, window, tcfg)
				return err
			})
			tr.Close(root)
			want := expected[w.Name+"/planar"]
			if epr.ScheduleCycles != want.Cycles || int64(epr.TotalPairs) != want.CommOps {
				o.mismatch("%s/planar: replay gave %d cycles, %d pairs; untraced compile %d, %d",
					w.Name, epr.ScheduleCycles, epr.TotalPairs, want.Cycles, want.CommOps)
			}
			if pass == 0 {
				o.metrics["simd.timesteps"] += float64(sched.Timesteps)
				o.metrics["teleport.total_pairs"] += float64(epr.TotalPairs)
				o.metrics["teleport.stall_cycles"] += float64(epr.StallCycles)
			}
		}
	}
	for _, name := range []string{"resource.dag", "layout.place", "simd.schedule", "teleport.jit_window", "teleport.distribute"} {
		o.setTimed(name, "ms", "", tr.passTotals(name))
	}
	for _, b := range []string{".braid", ".surgery"} {
		o.setTimed("braid.simulate", "ms", b, tr.passTotals("braid.simulate"+b))
	}
	o.metrics["loadgen.replay_self_us"] = tr.replaySelf("suite.app")
	o.report["time_rule"] = "per-layer times are the median over passes of the layer's total time for one suite pass"
	return o, nil
}

// pinSuite compiles every cell once and prints the pinned-results file.
func pinSuite() error {
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		return err
	}
	var rows []cellResult
	for _, c := range newSuite() {
		plan, err := tc.Compile(context.Background(), c.backend, c.circ)
		if err != nil {
			return err
		}
		rows = append(rows, summarizeCell(c, plan))
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
