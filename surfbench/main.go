// Command surfbench is the surfcomm benchmark: it generates seeded
// inputs, drives one workload against the unmodified program (library
// compiles, or in-process replicas behind an in-process router on
// loopback listeners), checks every output, and prints the end-to-end
// metrics. With -trace 1 it instead replays the same inputs through
// each layer's public functions one call at a time, records spans, and
// prints the per-layer metrics. The last line of standard output is
// the machine-readable result; see README.md.
//
//	bash surfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // scratch and span output directory
}

// outcome is what a workload run produced, before printing.
type outcome struct {
	attempted, failed int
	// mismatches lists every output check that failed.
	mismatches []string
	// metrics are the gated end-to-end metrics (untraced runs) or the
	// per-layer metrics (traced runs), by name.
	metrics map[string]float64
	// report holds the workload's own named figures (the per-workload
	// latencies, tail percentiles with their sample counts, error
	// fraction), printed beside the result for people to read.
	report map[string]any
	// tracers hold the traced run's spans, one per workload replayed.
	tracers map[string]*Tracer
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, report: map[string]any{}, tracers: map[string]*Tracer{}}
}

// mismatch records a failed output check.
func (o *outcome) mismatch(format string, args ...any) {
	if len(o.mismatches) < 1000 {
		o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"compile-suite", runCompileSuite},
	{"serve-warm", runServeWarm},
	{"serve-edit", runServeEdit},
	{"decode-stream", runDecodeStream},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: compile-suite, serve-warm, serve-edit or decode-stream")
	seed := flag.Int64("seed", 1, "workload seed (inputs are generated from it)")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced per-layer replay instead of the end-to-end run")
	out := flag.String("out", ".bench_build", "directory for scratch stores and span files")
	pin := flag.Bool("pin", false, "print a fresh expected_compile_suite.json and exit")
	flag.Parse()
	if *pin {
		if err := pinSuite(); err != nil {
			fail(err)
		}
		return
	}

	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fail(err)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("usage: --workload {compile-suite|serve-warm|serve-edit|decode-stream} --seed N --seconds N --trace {0|1}"))
	}
	run := w.run
	if cfg.trace {
		run = func(cfg config) (*outcome, error) { return runTraced(cfg, w) }
	}
	o, err := run(cfg)
	if err != nil {
		fail(err)
	}
	os.Exit(emit(cfg, o))
}

// emit prints the human-readable report, the metadata line and, last,
// the result line; it returns the exit code.
func emit(cfg config, o *outcome) int {
	meta := hostMeta(cfg)
	var files []string
	for name, tr := range o.tracers {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d-%s.jsonl", cfg.workload, cfg.seed, name))
		if err := tr.write(path); err != nil {
			o.mismatch("%v", err)
		}
		files = append(files, path)
	}
	if len(files) > 0 {
		sort.Strings(files)
		meta["span_files"] = files
	}
	if o.attempted > 0 {
		o.report["error_frac"] = float64(o.failed) / float64(o.attempted)
	}
	line, _ := json.Marshal(map[string]any{"meta": meta, "report": o.report, "mismatches": o.mismatches})
	fmt.Println(string(line))

	res := resultJSON{Correct: len(o.mismatches) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, m := range specs {
		res.Metrics[m.name] = metricJSON{Value: o.metrics[m.name], Unit: m.unit}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "MISMATCH:", m)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// runTraced is a traced run: the workload's own replay for the whole
// run, then a quarter-length replay of each other workload on inputs
// from the same seed. The other replays only fill the per-layer
// metrics of layers this workload does not exercise, so every traced
// run reports every layer as measured rather than as a placeholder.
func runTraced(cfg config, w *workload) (*outcome, error) {
	o, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	fill := cfg
	fill.seconds = cfg.seconds / 4
	filled := map[string]bool{}
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		f, err := other.run(fill)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", other.name, err)
		}
		o.attempted += f.attempted
		o.failed += f.failed
		for _, m := range f.mismatches {
			o.mismatch("%s replay: %s", other.name, m)
		}
		// A counter another replay read as 0 yields to one that
		// exercised it (store puts come from serve-edit, not from
		// serve-warm's storeless replicas).
		for k, v := range f.metrics {
			if _, set := o.metrics[k]; !set || (filled[k] && o.metrics[k] == 0) {
				o.metrics[k] = v
				filled[k] = true
			}
		}
		for name, tr := range f.tracers {
			o.tracers[name] = tr
		}
	}
	return o, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "surfbench:", err)
	os.Exit(2)
}

// hostMeta is the run's host and provenance record.
func hostMeta(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit("."),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory under root without
// running git; checkouts without one report "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
