package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// reqRecord is one closed-loop request: which generated input it sent
// (its global index), how long the client waited, and the reply.
type reqRecord struct {
	i     int
	lat   time.Duration
	reply compileReply
	err   error
	// warm marks a request sent during the warm-up, before timing
	// started: its reply is checked, its latency is not reported.
	warm bool
}

// warmUp is how long the serving loops run before timing starts, so
// connection pools, the collector's pacing and the CPU clock are in
// their steady state when measurement begins.
const warmUp = time.Second

// closedLoop runs clients goroutines that each send their next request
// only after the previous one completes, for warmUp and then dur.
// Request indices are handed out in order from one shared counter, so
// the inputs sent are the generated sequence whatever the interleaving.
// It returns every record and the wall time of the timed part.
func closedLoop(clients int, dur time.Duration, do func(i int) reqRecord) ([]reqRecord, time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([][]reqRecord, clients)
	start := time.Now().Add(warmUp)
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				r := do(int(next.Add(1) - 1))
				r.warm = t0.Before(start)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqRecord
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// latencySummary fills the generic serving metrics from the records
// that succeeded, and reports them under the workload's own names.
func latencySummary(o *outcome, recs []reqRecord, elapsed time.Duration, ok func(reqRecord) bool) {
	var lats []float64
	for _, r := range recs {
		if ok(r) && !r.warm {
			lats = append(lats, ms(r.lat))
		}
	}
	o.metrics["ops_per_s"] = float64(len(lats)) / elapsed.Seconds()
	o.metrics["op_p50_ms"] = median(lats)
	o.report["serve_rps"] = o.metrics["ops_per_s"]
	o.report["serve_p50_ms"] = o.metrics["op_p50_ms"]
	setTails(o, "serve_tail_ms", lats, 90, 1)
}

// setTails stores the gated op_tail_ms — latsMS at the workload's
// fixed percentile p — and reports, under name and scaled from ms by
// scale, the highest percentile with at least ten samples beyond it,
// with its sample counts.
func setTails(o *outcome, name string, latsMS []float64, p, scale float64) {
	o.metrics["op_tail_ms"] = tailAt(latsMS, p)
	t := tail(latsMS)
	t.Value *= scale
	o.report[name] = t
	o.report[name+"_gated_percentile"] = p

}

// Set-up repeats: see setUpRepeated.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 1.0 // seconds
)

// setUpRepeated sets up at least minSetups times, and more while the
// set-ups so far took under setupBudget (at most maxSetups), stopping
// every set-up but the last. It returns the last set-up and the median
// set-up time: a cheap set-up is repeated often enough that its median
// is steady.
func setUpRepeated[T any](setUp func() (T, func(), error)) (T, float64, error) {
	var times []float64
	total := 0.0
	for i := 0; ; i++ {
		t0 := time.Now()
		v, stop, err := setUp()
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
		if i+1 >= maxSetups || (i+1 >= minSetups && total >= setupBudget) {
			return v, median(times), nil
		}
		stop()
	}
}
