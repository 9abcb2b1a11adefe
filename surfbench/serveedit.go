package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"surfcomm"
	"surfcomm/internal/service"
)

// serve-edit: two closed-loop clients send /compile through the router
// to two replicas. Every request is a one-module edit of a 16-stage
// pipeline program on the braid backend, so every request misses the
// plan cache and writes it, and the module cache absorbs the rest: only
// the edited module compiles. Set-up warms the base program on each
// replica.
//
// Only the traced run gives each replica a plan store. Store writes
// fsync, and the request path waits behind them, so with stores the
// end-to-end figures followed the virtual disk's flush latency: on a
// 2-core VM, ten runs of one build spread over 128–195 requests/s.

const (
	editStages  = 16
	editClients = 2
)

type editFleet struct {
	f    *fleet
	base *surfcomm.Program
	rot  editRotation
	dir  string
}

func (e editFleet) stop() {
	e.f.close()
	os.RemoveAll(e.dir) //nolint:errcheck // scratch stores; the next run makes fresh ones
}

func setUpEdit(cfg config) (editFleet, error) {
	base, err := surfcomm.PipelineProgram(editStages)
	if err != nil {
		return editFleet{}, err
	}
	dir := ""
	if cfg.trace {
		if dir, err = os.MkdirTemp(cfg.out, "stores-"); err != nil {
			return editFleet{}, err
		}
	}
	f, err := startFleet(2, dir)
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck
		return editFleet{}, err
	}
	e := editFleet{f: f, base: base, rot: newEditRotation(cfg.seed, stageNames(base)), dir: dir}
	body, err := json.Marshal(service.Request{QASM: surfcomm.ProgramQASMString(base), Backend: "braid"})
	if err != nil {
		e.stop()
		return editFleet{}, err
	}
	for _, nd := range f.nodes {
		r, err := postCompile(f.hc, nd.srv.URL, body)
		if err == nil && r.status != http.StatusOK {
			err = fmt.Errorf("warming base program on %s: HTTP %d", nd.name, r.status)
		}
		if err != nil {
			e.stop()
			return editFleet{}, err
		}
	}
	return e, nil
}

// stageNames lists the program's modules other than the entry, sorted.
func stageNames(p *surfcomm.Program) []string {
	var names []string
	for name := range p.Modules {
		if name != p.Entry {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// freshCompile compiles prog on a toolchain with an empty module
// cache: the reference every reply is checked against.
func freshCompile(prog *surfcomm.Program) (surfcomm.Plan, error) {
	tc, err := surfcomm.NewToolchain(surfcomm.WithModular())
	if err != nil {
		return surfcomm.Plan{}, err
	}
	return modularCompile(tc, prog)
}

// modularCompile compiles prog incrementally on tc and insists on the
// link record.
func modularCompile(tc *surfcomm.Toolchain, prog *surfcomm.Program) (surfcomm.Plan, error) {
	plan, err := tc.CompileIncremental(context.Background(), surfcomm.BraidBackend{}, prog)
	if err == nil && plan.Modular == nil {
		err = fmt.Errorf("reference: no link record")
	}
	return plan, err
}

// requestDigest is the cache digest a replica assigns req.
func requestDigest(resolver *service.Service, req service.Request) (string, error) {
	res, _ := resolver.Compile(context.Background(), req) // fails by construction; the digest is set
	if res.Digest == "" {
		return "", fmt.Errorf("reference: no request digest: %v", res.Err)
	}
	return res.Digest, nil
}

func runServeEdit(cfg config) (*outcome, error) {
	o := newOutcome()
	e, setup, err := setUpRepeated(func() (editFleet, func(), error) {
		e, err := setUpEdit(cfg)
		return e, e.stop, err
	})
	if err != nil {
		return nil, err
	}
	defer e.stop()
	if cfg.trace {
		return traceServeEdit(cfg, o, e)
	}
	win, err := startWindow()
	if err != nil {
		return nil, err
	}
	recs, elapsed := closedLoop(editClients, cfg.seconds, func(i int) reqRecord {
		_, _, body, err := e.rot.request(e.base, i)
		if err != nil {
			return reqRecord{i: i, err: err}
		}
		t0 := time.Now()
		r, err := postCompile(e.f.hc, e.f.front.URL, body)
		return reqRecord{i: i, lat: time.Since(t0), reply: r, err: err}
	})
	if err := win.end(o); err != nil {
		return nil, err
	}
	ok := func(r reqRecord) bool { return r.err == nil && r.reply.status == http.StatusOK }
	latencySummary(o, recs, elapsed, ok)
	o.metrics["setup_s"] = setup

	// Untimed checks, on editClients goroutines: every reply against a
	// compile of the same edit on an empty module cache, and the newest
	// replies' link digests against that compile's. /compile replies do
	// not carry link digests, so those are read back from the owner's
	// cache, which by now has evicted all but the newest plans.
	sort.Slice(recs, func(a, b int) bool { return recs[a].i < recs[b].i })
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	for c := 0; c < editClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resolver := digestResolver()
			for k := c; k < len(recs); k += editClients {
				if ok(recs[k]) {
					errs[k] = checkEdit(e, resolver, recs[k], k >= len(recs)-editLinkChecks)
				}
			}
		}(c)
	}
	wg.Wait()
	for k, r := range recs {
		o.attempted++
		if !ok(r) {
			o.failed++
		} else if errs[k] != nil {
			o.mismatch("edit %d: %v", r.i, errs[k])
		}
	}
	o.report["requests"] = len(recs)
	return o, nil
}

// editLinkChecks is how many of the newest replies have their link
// digests checked.
const editLinkChecks = 4

// checkEdit compares one reply with a fresh-cache compile of its edit:
// the same plan, the request's digest, not served from the cache, and,
// with link set, the same link digest in the owner's cache.
func checkEdit(e editFleet, resolver *service.Service, r reqRecord, link bool) error {
	prog, req, _, err := e.rot.request(e.base, r.i)
	if err != nil {
		return err
	}
	want, err := freshCompile(prog)
	if err != nil {
		return err
	}
	digest, err := requestDigest(resolver, req)
	if err != nil {
		return err
	}
	got := r.reply.resp
	if got.Plan == nil || *got.Plan != service.Summarize(want) || got.Digest != digest || got.Cached {
		return fmt.Errorf("reply %+v (cached=%t, digest %.12s), want %+v (digest %.12s, uncached)",
			got.Plan, got.Cached, got.Digest, service.Summarize(want), digest)
	}
	if !link {
		return nil
	}
	key, err := service.RoutingKey(req)
	if err != nil {
		return err
	}
	res, err := e.f.owner(key).svc.Compile(context.Background(), req)
	switch {
	case err != nil:
		return err
	case !res.Cached || res.Plan.Modular == nil:
		return fmt.Errorf("served plan no longer cached with its link record")
	case res.Plan.Modular.LinkDigest != want.Modular.LinkDigest:
		return fmt.Errorf("link digest %.12s, fresh-cache compile %.12s", res.Plan.Modular.LinkDigest, want.Modular.LinkDigest)
	}
	return nil
}

// traceServeEdit replays the edit stream one call at a time: the
// hierarchical parse and emit, the routing key, the owner replica's
// in-process Service.Compile (a miss that writes its store), and the
// same edit through Toolchain.CompileIncremental on a warm module
// cache of the bench's own.
func traceServeEdit(cfg config, o *outcome, e editFleet) (*outcome, error) {
	tr := newTracer()
	o.tracers["serve-edit"] = tr
	ctx := context.Background()
	warm, err := surfcomm.NewToolchain(surfcomm.WithModular())
	if err != nil {
		return nil, err
	}
	if _, err := modularCompile(warm, e.base); err != nil {
		return nil, err
	}
	resolver := digestResolver()
	before := fleetStats(e.f)
	var compiled, hits, stitch []float64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		prog, req, _, err := e.rot.request(e.base, i)
		if err != nil {
			return nil, err
		}
		root := tr.Open("serve.request", 0, i)
		step := func(name string, fn func() error) {
			o.attempted++
			if _, err := tr.Time(name, root, i, fn); err != nil {
				o.failed++
				o.mismatch("edit %d %s: %v", i, name, err)
			}
		}
		step("circuit.parse.program", func() error {
			_, err := surfcomm.ReadProgramQASM(strings.NewReader(req.QASM))
			return err
		})
		step("circuit.emit.program", func() error {
			var buf bytes.Buffer
			return surfcomm.WriteProgramQASM(&buf, prog)
		})
		var key string
		step("service.routing_key", func() (err error) {
			key, err = service.RoutingKey(req)
			return err
		})
		var res service.Result
		step("service.compile_miss", func() (err error) {
			res, err = e.f.owner(key).svc.Compile(ctx, req)
			return err
		})
		var plan surfcomm.Plan
		step("modcompile.incremental", func() (err error) {
			plan, err = modularCompile(warm, prog)
			return err
		})
		tr.Close(root)
		if plan.Modular == nil {
			continue
		}
		digest, err := requestDigest(resolver, req)
		if err != nil {
			return nil, err
		}
		if res.Plan.Modular == nil || service.Summarize(res.Plan) != service.Summarize(plan) ||
			res.Plan.Modular.LinkDigest != plan.Modular.LinkDigest || res.Digest != digest || res.Cached {
			o.mismatch("edit %d: in-process compile disagrees with the warm-cache reference", i)
		}
		if i == 0 {
			if fresh, err := freshCompile(prog); err != nil || fresh.Modular.LinkDigest != plan.Modular.LinkDigest {
				o.mismatch("edit 0: fresh-cache compile (%v) disagrees with the warm-cache reference", err)
			}
		}
		compiled = append(compiled, float64(len(plan.Modular.Compiled)))
		hits = append(hits, float64(plan.Modular.Hits))
		stitch = append(stitch, float64(plan.Modular.StitchCycles))
	}
	e.f.nodes[0].svc.Close() // flush write-behind saves before reading store counters
	e.f.nodes[1].svc.Close()
	after := fleetStats(e.f)
	for _, name := range []string{"circuit.parse", "circuit.emit"} {
		o.setTimed(name, "us", ".program", tr.spanSamples(name+".program"))
	}
	o.setTimed("service.routing_key", "us", "", tr.spanSamples("service.routing_key"))
	o.setTimed("service.compile_miss", "ms", "", tr.spanSamples("service.compile_miss"))
	o.setTimed("modcompile.incremental", "ms", "", tr.spanSamples("modcompile.incremental"))
	o.metrics["modcompile.modules_compiled"] = median(compiled)
	o.metrics["modcompile.module_hits"] = median(hits)
	o.metrics["modcompile.stitch_cycles"] = median(stitch)
	o.metrics["loadgen.replay_self_us"] = tr.replaySelf("serve.request")
	o.setDeltas(before, after, "service.cache_hit_frac", "service.module_hit_frac", "service.evictions", "service.shed",
		"store.puts", "store.put_errors", "store.disk_hits")
	return o, nil
}
