package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"surfcomm"
	"surfcomm/client"
	"surfcomm/internal/service"
)

// decode-stream: one /decode session at a time through the router, one
// per (d ∈ {9, 17}) × (mwpm, unionfind) in turn. Each session declares
// window 4 and a 200 µs cadence; the client is open-loop: it sends
// each round when it is due, whatever the server has answered, with
// data errors at p = 3·10⁻³ per qubit per round. A window's latency
// runs from when its last round was due to when its correction
// arrived.

const (
	decodeWindow  = 4
	decodeCadence = 200 * time.Microsecond
	decodeP       = 3e-3
	// sessionRounds is one session's length: 250 ms of rounds.
	sessionRounds = 1250
)

type sessionSpec struct {
	d        int
	strategy string
}

var sessionSpecs = []sessionSpec{
	{9, surfcomm.DecoderStrategyMWPM},
	{9, surfcomm.DecoderStrategyUnionFind},
	{17, surfcomm.DecoderStrategyMWPM},
	{17, surfcomm.DecoderStrategyUnionFind},
}

func (s sessionSpec) String() string { return fmt.Sprintf("d=%d/%s", s.d, s.strategy) }

// session is one generated session: its spec, lattice and rounds.
type session struct {
	spec sessionSpec
	l    *surfcomm.DecoderLattice
	in   syndromeStream
}

// sessionInputs generates the run's sessions: the four specs in turn,
// n sessions in all, each with its own seeded error stream.
func sessionInputs(seed int64, n int) ([]session, error) {
	out := make([]session, n)
	for k := range out {
		spec := sessionSpecs[k%len(sessionSpecs)]
		l, err := surfcomm.NewDecoderLattice(spec.d)
		if err != nil {
			return nil, err
		}
		out[k] = session{spec, l, newSyndromeStream(seed*1_000_003+int64(k), l, sessionRounds, decodeP)}
	}
	return out, nil
}

// windowArrival is one decoded window as the client received it.
type windowArrival struct {
	res *service.DecodeWindowResult
	at  time.Time
}

// sessionRun is one paced session's timing and verdict.
type sessionRun struct {
	start    time.Time // round r was due at start + r·cadence
	lags     []float64 // µs each round was sent after it was due
	windows  []windowArrival
	summary  service.DecodeSummary
	problems []string
}

// due returns when round r was due.
func (s *sessionRun) due(r int) time.Time { return s.start.Add(time.Duration(r) * decodeCadence) }

// windowLatency is how long window w's correction took from when the
// window's last round was due.
func (s *sessionRun) windowLatency(w windowArrival) time.Duration {
	last := min(w.res.Window*decodeWindow, sessionRounds) - 1
	return w.at.Sub(s.due(last))
}

// pacedSession streams one session open-loop at the cadence against
// base, draining results on a second goroutine, and audits the
// cumulative correction against the final syndrome.
func pacedSession(hc *client.Client, s session) (*sessionRun, error) {
	spec, l, in := s.spec, s.l, s.in
	// A session normally lasts 250 ms; the timeout only bounds a hung one.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ds, err := hc.DecodeStream(ctx, service.DecodeStart{
		Distance: spec.d, Window: decodeWindow, CadenceUS: decodeCadence.Microseconds(), Strategy: spec.strategy,
	})
	if err != nil {
		return nil, err
	}
	// Either side closes the stream on failure, so the other is never
	// left blocked on a peer that has stopped.
	closeStream := sync.OnceFunc(func() { ds.Close() })
	defer closeStream()
	run := &sessionRun{lags: make([]float64, 0, sessionRounds)}
	cumulative := l.NewErrorPattern()
	var recvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			res, err := ds.Next()
			at := time.Now()
			if errors.Is(err, io.EOF) {
				return
			}
			if err == nil {
				run.windows = append(run.windows, windowArrival{res: res, at: at})
				var corr []bool
				if corr, err = ds.Correction(res); err == nil {
					for q, hot := range corr {
						if hot {
							cumulative[q] = !cumulative[q]
						}
					}
					continue
				}
			}
			recvErr = err
			closeStream()
			return
		}
	}()
	run.start = time.Now()
	var sendErr error
	for r, syn := range in.rounds {
		due := run.due(r)
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		run.lags = append(run.lags, us(time.Since(due)))
		if sendErr = ds.Send(syn); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		sendErr = ds.CloseSend()
	}
	if sendErr != nil {
		closeStream()
	}
	wg.Wait()
	if err := errors.Join(sendErr, recvErr); err != nil {
		return nil, err
	}
	sum, ok := ds.Summary()
	if !ok {
		return nil, fmt.Errorf("%s: stream ended without a summary", spec)
	}
	run.summary = sum
	wantWindows := (sessionRounds + decodeWindow - 1) / decodeWindow
	if sum.Rounds != sessionRounds || sum.Windows != wantWindows || len(run.windows) != wantWindows {
		run.problems = append(run.problems, fmt.Sprintf("%s: %d rounds, %d windows (%d received), want %d and %d",
			spec, sum.Rounds, sum.Windows, len(run.windows), sessionRounds, wantWindows))
	}
	residual := l.NewErrorPattern()
	for q := range residual {
		residual[q] = in.errs[q] != cumulative[q]
	}
	for _, hot := range l.Syndrome(residual) {
		if hot {
			run.problems = append(run.problems, fmt.Sprintf("%s: cumulative correction leaves a defect in the final syndrome", spec))
			break
		}
	}
	return run, nil
}

// decodeCycles is how many times a run streams the four sessions: as
// many whole cycles as fit the run's time, so the mix is always exact.
func decodeCycles(seconds time.Duration) int {
	perCycle := time.Duration(len(sessionSpecs)*sessionRounds) * decodeCadence
	return max(1, int(seconds/perCycle))
}

func runDecodeStream(cfg config) (*outcome, error) {
	o := newOutcome()
	type decode struct {
		f        *fleet
		sessions []session
	}
	n := decodeCycles(cfg.seconds) * len(sessionSpecs)
	d, setup, err := setUpRepeated(func() (decode, func(), error) {
		sessions, err := sessionInputs(cfg.seed, n)
		if err != nil {
			return decode{}, nil, err
		}
		f, err := startFleet(2, "")
		if err != nil {
			return decode{}, nil, err
		}
		return decode{f, sessions}, f.close, nil
	})
	if err != nil {
		return nil, err
	}
	f := d.f
	defer f.close()
	if cfg.trace {
		return traceDecodeStream(cfg, o, f, d.sessions)
	}
	cl := client.New(f.front.URL, client.WithHTTPClient(f.hc))
	var lats, lags []float64
	late := 0
	win, err := startWindow()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for k, s := range d.sessions {
		wantWindows := (sessionRounds + decodeWindow - 1) / decodeWindow
		o.attempted += wantWindows
		run, err := pacedSession(cl, s)
		if err != nil {
			o.failed += wantWindows
			o.mismatch("session %d %s: %v", k, s.spec, err)
			continue
		}
		o.failed += max(0, wantWindows-len(run.windows))
		for _, p := range run.problems {
			o.mismatch("session %d %s", k, p)
		}
		for _, w := range run.windows {
			lats = append(lats, ms(run.windowLatency(w)))
			if !w.res.KeptUp {
				late++
			}
		}
		lags = append(lags, run.lags...)
	}
	elapsed := time.Since(start)
	if err := win.end(o); err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setup
	o.metrics["ops_per_s"] = float64(len(lats)) / elapsed.Seconds()
	o.metrics["op_p50_ms"] = median(lats)
	o.report["decode_window_p50_us"] = median(lats) * 1000
	setTails(o, "decode_window_tail_us", lats, 95, 1000)
	o.report["late_windows"] = late
	o.report["send_lag_p99_us"] = tailAt(lags, 99)
	return o, nil
}

// traceDecodeStream replays each session's rounds through the layers:
// the stream decoder alone, the service's DecodeSession in process, a
// paced session straight to a replica and one through the router.
func traceDecodeStream(cfg config, o *outcome, f *fleet, sessions []session) (*outcome, error) {
	tr := newTracer()
	o.tracers["decode-stream"] = tr
	before := fleetStats(f)
	rb, err := snapRouter(f)
	if err != nil {
		return nil, err
	}
	direct := client.New(f.nodes[0].srv.URL, client.WithHTTPClient(f.hc))
	routed := client.New(f.front.URL, client.WithHTTPClient(f.hc))
	windows := map[string][]sample{}
	var pushSelf, transport, directLat, routedLat, lags []float64
	workops := map[string][]float64{}
	start := time.Now()
	for k := 0; k < len(sessions) && (k == 0 || time.Since(start) < cfg.seconds); k++ {
		spec, in := sessions[k].spec, sessions[k].in
		root := tr.Open("decode.session", 0, k)
		step := func(name string, fn func() error) Span {
			o.attempted++
			id, err := tr.Time(name, root, k, fn)
			if err != nil {
				o.failed++
				o.mismatch("session %d %s %s: %v", k, spec, name, err)
			}
			return tr.Span(id)
		}

		// The decoder alone: window-completing rounds are timed.
		sd, err := surfcomm.NewStreamDecoder(spec.d, decodeWindow, spec.strategy)
		if err != nil {
			return nil, err
		}
		var winSpans []Span
		for r, syn := range in.rounds {
			if r%decodeWindow != decodeWindow-1 {
				if _, err := sd.PushRound(syn); err != nil {
					return nil, err
				}
				continue
			}
			winSpans = append(winSpans, step("decoder.window."+spec.strategy, func() error {
				_, err := sd.PushRound(syn)
				return err
			}))
		}
		for _, s := range winSpans {
			windows[spec.strategy] = append(windows[spec.strategy], spanSample(s))
		}
		workops[spec.strategy] = append(workops[spec.strategy], float64(sd.WorkOps())/float64(max(1, sd.Windows())))

		// The service session in process, on the same rounds.
		sess, err := f.nodes[0].svc.StartDecode(context.Background(), service.DecodeStart{
			Distance: spec.d, Window: decodeWindow, CadenceUS: decodeCadence.Microseconds(), Strategy: spec.strategy,
		})
		if err != nil {
			return nil, err
		}
		w := 0
		for r, syn := range in.rounds {
			frame := service.DecodeFrame{Syndrome: service.PackBits(syn)}
			if r%decodeWindow != decodeWindow-1 {
				if _, err := sess.PushRound(frame); err != nil {
					sess.Close()
					return nil, err
				}
				continue
			}
			s := step("service.decode_push", func() error {
				_, err := sess.PushRound(frame)
				return err
			})
			pushSelf = append(pushSelf, us(s.Dur()-winSpans[w].Dur()))
			w++
		}
		sess.Close()

		// Paced sessions: straight to a replica, then through the router.
		for _, leg := range []struct {
			name string
			cl   *client.Client
			lat  *[]float64
		}{{"replica", direct, &directLat}, {"router", routed, &routedLat}} {
			o.attempted++
			run, err := pacedSession(leg.cl, sessions[k])
			if err != nil {
				o.failed++
				o.mismatch("session %d %s via %s: %v", k, spec, leg.name, err)
				continue
			}
			for _, p := range run.problems {
				o.mismatch("session %d via %s: %s", k, leg.name, p)
			}
			for _, wa := range run.windows {
				lat := run.windowLatency(wa)
				tr.Record("decode.window_latency."+leg.name, root, k, wa.at.Add(-lat), wa.at)
				*leg.lat = append(*leg.lat, us(lat))
				if leg.name == "replica" {
					transport = append(transport, us(lat)-wa.res.DecodeMicros)
				}
			}
			lags = append(lags, run.lags...)
		}
		tr.Close(root)
	}
	after := fleetStats(f)
	ra, err := snapRouter(f)
	if err != nil {
		return nil, err
	}
	for _, s := range []string{surfcomm.DecoderStrategyMWPM, surfcomm.DecoderStrategyUnionFind} {
		o.setTimed("decoder.window", "us", "."+s, windows[s])
		o.metrics["decoder.workops_per_window."+s] = median(workops[s])
	}
	o.setTimed("service.decode_push", "us", "", tr.spanSamples("service.decode_push"))
	o.metrics["service.decode_push_self_us"] = median(pushSelf)
	o.metrics["service.decode_transport_us"] = median(transport)
	o.metrics["cluster.decode_relay_us"] = median(routedLat) - median(directLat)
	o.metrics["loadgen.send_lag_p99_us"] = tailAt(lags, 99)
	o.setDeltas(before, after, "service.shed", "service.late_windows")
	o.setRouterDeltas(rb, ra)
	return o, nil
}
