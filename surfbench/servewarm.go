package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"surfcomm"
	"surfcomm/internal/faultinject"
	"surfcomm/internal/service"
)

// serve-warm: two closed-loop clients send /compile through the router
// to two replicas. The corpus — the four Figure 6 circuits × {braid,
// planar} × two layout seeds, 16 digests — is compiled into the
// replicas' caches during set-up, so every request is a cache hit: the
// routing key, QASM parse, canonical emit, digest and HTTP do the work.
// Requests follow a seeded Zipf (s=1.2) order over the corpus; the
// order is all the workload seed changes.

const (
	warmClients = 2
	zipfS       = 1.2
	zipfBlockN  = 256
	zipfBlocks  = 64
)

// warmItem is one corpus entry with its reference answer.
type warmItem struct {
	name string
	req  service.Request
	body []byte
	// circ is the parsed circuit the reference compile uses.
	circ *surfcomm.Circuit
	// want is the direct Toolchain.Compile result; digest is the cache
	// digest the service assigns the request.
	want   service.PlanSummary
	digest string
}

// warmLayoutSeeds are the corpus's two layout seeds. They are fixed,
// not drawn from the workload seed, because the routing key covers
// them: drawn seeds would reshuffle which replica owns which circuit
// and make throughput depend on the workload seed.
var warmLayoutSeeds = []int64{1, 2}

// warmCorpus builds the corpus in rank order: the Zipf head is rank 0.
// Popularity falls with circuit size — SQ, GSE, IM, then SHA-1 — so the
// median request is a small circuit, p90 falls among the IM requests,
// and the 170 KB SHA-1 hits are the rare expensive tail (6% of
// requests, about half the time).
func warmCorpus() ([]*warmItem, error) {
	byName := map[string]surfcomm.Workload{}
	for _, w := range surfcomm.Fig6Suite() {
		byName[w.Name] = w
	}
	var items []*warmItem
	for _, app := range []string{"SQ", "GSE", "IM", "SHA-1"} {
		w := byName[app]
		for _, backend := range []string{"braid", "planar"} {
			for _, s := range warmLayoutSeeds {
				var buf bytes.Buffer
				if err := surfcomm.WriteQASM(&buf, w.Circuit); err != nil {
					return nil, err
				}
				s := s
				req := service.Request{QASM: buf.String(), Backend: backend, Seed: &s}
				body, err := json.Marshal(req)
				if err != nil {
					return nil, err
				}
				items = append(items, &warmItem{
					name: fmt.Sprintf("%s/%s/seed=%d", w.Name, backend, s),
					req:  req, body: body, circ: w.Circuit,
				})
			}
		}
	}
	return items, nil
}

// setUpWarm generates the corpus, starts the fleet and compiles every
// corpus entry into its owner's cache through the router.
func setUpWarm() ([]*warmItem, *fleet, error) {
	items, err := warmCorpus()
	if err != nil {
		return nil, nil, err
	}
	f, err := startFleet(2, "")
	if err != nil {
		return nil, nil, err
	}
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for c := 0; c < warmClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(items); i += warmClients {
				r, err := postCompile(f.hc, f.front.URL, items[i].body)
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("pre-warm %s: HTTP %d", items[i].name, r.status)
				}
				errs[i] = err
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.close()
			return nil, nil, err
		}
	}
	return items, f, nil
}

// digestResolver returns a service that answers every compile with an
// injected error after resolving it, so its Result carries the cache
// digest a replica assigns the request without compiling anything.
func digestResolver() *service.Service {
	inj := faultinject.New(1)
	_ = inj.Set(faultinject.CompileError, 1) // a valid point and probability
	return service.New(nil, service.Config{Injector: inj})
}

// warmReferences compiles every item directly through the toolchain
// and resolves its digest. It is not part of set-up.
func warmReferences(items []*warmItem) error {
	tc, err := surfcomm.NewToolchain()
	if err != nil {
		return err
	}
	res := digestResolver()
	ctx := context.Background()
	for _, it := range items {
		b, err := surfcomm.BackendByName(it.req.Backend)
		if err != nil {
			return err
		}
		seed := *it.req.Seed
		plan, err := tc.Compile(ctx, b, it.circ, func(t *surfcomm.Target) { t.Seed = seed })
		if err != nil {
			return fmt.Errorf("reference %s: %w", it.name, err)
		}
		it.want = service.Summarize(plan)
		r, _ := res.Compile(ctx, it.req) // fails by construction; the digest is set
		if r.Digest == "" {
			return fmt.Errorf("reference %s: no digest: %v", it.name, r.Err)
		}
		it.digest = r.Digest
	}
	return nil
}

// checkReply compares one reply with the item's reference: the same
// plan and digest, served from the cache.
func checkReply(o *outcome, it *warmItem, r compileReply) {
	if r.status != http.StatusOK {
		return // counted as failed, not as a wrong answer
	}
	got := r.resp
	if got.Plan == nil || *got.Plan != it.want || got.Digest != it.digest || !got.Cached {
		o.mismatch("%s: plan %+v (digest %.12s, cached=%t), want %+v (digest %.12s, cached)",
			it.name, got.Plan, got.Digest, got.Cached, it.want, it.digest)
	}
}

func runServeWarm(cfg config) (*outcome, error) {
	o := newOutcome()
	type warm struct {
		items []*warmItem
		f     *fleet
	}
	w, setup, err := setUpRepeated(func() (warm, func(), error) {
		items, f, err := setUpWarm()
		if err != nil {
			return warm{}, nil, err
		}
		return warm{items, f}, f.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer w.f.close()
	if err := warmReferences(w.items); err != nil {
		return nil, err
	}
	order := zipfOrder(cfg.seed, len(w.items), zipfS, zipfBlockN, zipfBlocks)
	if cfg.trace {
		return traceServeWarm(cfg, o, w.items, w.f, order)
	}
	before := fleetStats(w.f)
	win, err := startWindow()
	if err != nil {
		return nil, err
	}
	recs, elapsed := closedLoop(warmClients, cfg.seconds, func(i int) reqRecord {
		it := w.items[order[i%len(order)]]
		t0 := time.Now()
		r, err := postCompile(w.f.hc, w.f.front.URL, it.body)
		return reqRecord{i: i, lat: time.Since(t0), reply: r, err: err}
	})
	if err := win.end(o); err != nil {
		return nil, err
	}
	after := fleetStats(w.f)
	for _, r := range recs {
		o.attempted++
		if r.err != nil || r.reply.status != http.StatusOK {
			o.failed++
			continue
		}
		checkReply(o, w.items[order[r.i%len(order)]], r.reply)
	}
	latencySummary(o, recs, elapsed, func(r reqRecord) bool { return r.err == nil && r.reply.status == http.StatusOK })
	o.metrics["setup_s"] = setup
	o.report["cache_hit_frac"] = after.hitFrac(before)
	return o, nil
}

// traceServeWarm replays the request order one call at a time: parse,
// emit, routing key, the owner's in-process Service.Compile, the same
// request over HTTP straight to the owner, and again through the
// router. Differences of calls on the same request give the HTTP and
// router-hop costs.
func traceServeWarm(cfg config, o *outcome, items []*warmItem, f *fleet, order []int) (*outcome, error) {
	tr := newTracer()
	o.tracers["serve-warm"] = tr
	ctx := context.Background()
	before := fleetStats(f)
	rb, err := snapRouter(f)
	if err != nil {
		return nil, err
	}
	var hit, httpCost, hop []sample
	var hitSelf []float64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		it := items[order[i%len(order)]]
		root := tr.Open("serve.request", 0, i)
		step := func(name string, fn func() error) Span {
			o.attempted++
			id, err := tr.Time(name, root, i, fn)
			if err != nil {
				o.failed++
				o.mismatch("%s %s: %v", it.name, name, err)
			}
			return tr.Span(id)
		}
		var circ *surfcomm.Circuit
		parse := step("circuit.parse", func() (err error) {
			circ, err = surfcomm.ReadQASM(strings.NewReader(it.req.QASM))
			return err
		})
		emit := step("circuit.emit", func() error {
			var buf bytes.Buffer
			return surfcomm.WriteQASM(&buf, circ)
		})
		var key string
		step("service.routing_key", func() (err error) {
			key, err = service.RoutingKey(it.req)
			return err
		})
		owner := f.owner(key)
		in := step("service.compile_hit", func() error {
			res, err := owner.svc.Compile(ctx, it.req)
			if err == nil {
				plan := service.Summarize(res.Plan)
				checkReply(o, it, compileReply{status: http.StatusOK, resp: service.CompileResponse{
					Plan: &plan, Cached: res.Cached, Digest: res.Digest}})
			}
			return err
		})
		direct := step("service.http_roundtrip", func() error { return checkedPost(o, f.hc, owner.srv.URL, it) })
		via := step("cluster.roundtrip", func() error { return checkedPost(o, f.hc, f.front.URL, it) })
		tr.Close(root)
		hit = append(hit, spanSample(in))
		hitSelf = append(hitSelf, us(in.Dur()-parse.Dur()-emit.Dur()))
		httpCost = append(httpCost, spanSample(direct).minus(spanSample(in)))
		hop = append(hop, spanSample(via).minus(spanSample(direct)))
	}
	after := fleetStats(f)
	ra, err := snapRouter(f)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"circuit.parse", "circuit.emit", "service.routing_key"} {
		o.setTimed(name, "us", "", tr.spanSamples(name))
	}
	o.setTimed("service.compile_hit", "us", "", hit)
	o.setTimed("service.http", "us", "", httpCost)
	o.setTimed("cluster.hop", "us", "", hop)
	o.metrics["service.compile_hit_self_us"] = median(hitSelf)
	o.metrics["loadgen.replay_self_us"] = tr.replaySelf("serve.request")
	o.setDeltas(before, after, "service.cache_hit_frac", "service.evictions", "service.shed")
	o.setRouterDeltas(rb, ra)
	return o, nil
}

// checkedPost sends one corpus request and checks the reply.
func checkedPost(o *outcome, hc *http.Client, base string, it *warmItem) error {
	r, err := postCompile(hc, base, it.body)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("HTTP %d", r.status)
	}
	checkReply(o, it, r)
	return nil
}
