package main

import (
	"time"
)

// spec is one metric as BENCHMARK.json declares it.
type spec struct {
	name, unit string
}

// endToEnd are the gated metrics every untraced run prints. Each
// workload measures them on its own unit of work ("op"): one compile
// in compile-suite, one /compile request in serve-warm and serve-edit,
// one decode window in decode-stream.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// timedSpans are the traced calls whose time, allocations and bytes
// are reported. A metric is named base_<unit>variant, e.g.
// braid.simulate_ms.surgery with braid.simulate_allocs.surgery and
// braid.simulate_bytes.surgery beside it.
var timedSpans = []struct{ base, unit, variant string }{
	{"resource.dag", "ms", ""},
	{"layout.place", "ms", ""},
	{"braid.simulate", "ms", ".braid"},
	{"braid.simulate", "ms", ".surgery"},
	{"simd.schedule", "ms", ""},
	{"teleport.jit_window", "ms", ""},
	{"teleport.distribute", "ms", ""},
	{"circuit.parse", "us", ""},
	{"circuit.emit", "us", ""},
	{"circuit.parse", "us", ".program"},
	{"circuit.emit", "us", ".program"},
	{"service.routing_key", "us", ""},
	{"service.compile_hit", "us", ""},
	{"service.http", "us", ""},
	{"cluster.hop", "us", ""},
	{"service.compile_miss", "ms", ""},
	{"modcompile.incremental", "ms", ""},
	{"service.decode_push", "us", ""},
	{"decoder.window", "us", ".mwpm"},
	{"decoder.window", "us", ".unionfind"},
}

// otherLayer are the per-layer metrics that are not span triplets:
// self times, differences of two calls on the same input, and counts.
var otherLayer = []spec{
	{"service.compile_hit_self_us", "us"},
	{"service.decode_push_self_us", "us"},
	{"service.decode_transport_us", "us"},
	{"cluster.decode_relay_us", "us"},
	{"loadgen.send_lag_p99_us", "us"},
	{"loadgen.replay_self_us", "us"},
	{"braid.braids_placed.braid", "count"},
	{"braid.braids_placed.surgery", "count"},
	{"braid.adaptive_routes.braid", "count"},
	{"braid.adaptive_routes.surgery", "count"},
	{"braid.reinjections.braid", "count"},
	{"braid.reinjections.surgery", "count"},
	{"braid.schedule_cycles.braid", "cycles"},
	{"braid.schedule_cycles.surgery", "cycles"},
	{"simd.timesteps", "count"},
	{"teleport.total_pairs", "count"},
	{"teleport.stall_cycles", "cycles"},
	{"service.cache_hit_frac", "frac"},
	{"service.module_hit_frac", "frac"},
	{"service.evictions", "count"},
	{"service.shed", "count"},
	{"service.late_windows", "count"},
	{"cluster.forwarded", "count"},
	{"cluster.failovers", "count"},
	{"cluster.hedges", "count"},
	{"cluster.balance_max_share", "frac"},
	{"modcompile.modules_compiled", "count"},
	{"modcompile.module_hits", "count"},
	{"modcompile.stitch_cycles", "cycles"},
	{"store.puts", "count"},
	{"store.put_errors", "count"},
	{"store.disk_hits", "count"},
	{"decoder.workops_per_window.mwpm", "count"},
	{"decoder.workops_per_window.unionfind", "count"},
}

// perLayer is every metric a traced run prints.
var perLayer = func() []spec {
	var out []spec
	for _, t := range timedSpans {
		out = append(out,
			spec{t.base + "_" + t.unit + t.variant, t.unit},
			spec{t.base + "_allocs" + t.variant, "count"},
			spec{t.base + "_bytes" + t.variant, "B"},
		)
	}
	return append(out, otherLayer...)
}()

// unitScale converts a duration into a per-layer unit.
func unitScale(d time.Duration, unit string) float64 {
	if unit == "ms" {
		return ms(d)
	}
	return us(d)
}

// sample is one observation of a timed span: its duration and its
// allocation deltas.
type sample struct {
	dur           time.Duration
	allocs, bytes float64
}

func spanSample(s Span) sample {
	return sample{dur: s.Dur(), allocs: float64(s.Allocs), bytes: float64(s.Bytes)}
}

// minus is the difference of two observations of the same input
// (an outer call minus the inner call it contains).
func (a sample) minus(b sample) sample {
	return sample{dur: a.dur - b.dur, allocs: a.allocs - b.allocs, bytes: a.bytes - b.bytes}
}

// setTimed stores the medians of samples as the triplet for base,
// unit and variant.
func (o *outcome) setTimed(base, unit, variant string, xs []sample) {
	if len(xs) == 0 {
		return
	}
	d := make([]float64, len(xs))
	a := make([]float64, len(xs))
	b := make([]float64, len(xs))
	for i, x := range xs {
		d[i] = unitScale(x.dur, unit)
		a[i] = x.allocs
		b[i] = x.bytes
	}
	o.metrics[base+"_"+unit+variant] = median(d)
	o.metrics[base+"_allocs"+variant] = median(a)
	o.metrics[base+"_bytes"+variant] = median(b)
}

// spanSamples collects the observations of every span named name.
func (t *Tracer) spanSamples(name string) []sample {
	var out []sample
	for _, s := range t.byName(name) {
		out = append(out, spanSample(s))
	}
	return out
}

// passTotals sums the observations of a span within each replay pass
// (spans carry the pass in Req), one sample per pass: the per-layer
// cost of compiling the whole suite once.
func (t *Tracer) passTotals(name string) []sample {
	var order []int
	sums := map[int]sample{}
	for _, s := range t.byName(name) {
		x, seen := sums[s.Req]
		if !seen {
			order = append(order, s.Req)
		}
		y := spanSample(s)
		sums[s.Req] = sample{dur: x.dur + y.dur, allocs: x.allocs + y.allocs, bytes: x.bytes + y.bytes}
	}
	out := make([]sample, 0, len(order))
	for _, r := range order {
		out = append(out, sums[r])
	}
	return out
}

// replaySelf is the median bench overhead of the traced replay: each
// request span minus the layer calls inside it.
func (t *Tracer) replaySelf(name string) float64 {
	var xs []float64
	for _, s := range t.byName(name) {
		xs = append(xs, us(selfTime(t.spans, s.ID)))
	}
	return median(xs)
}
