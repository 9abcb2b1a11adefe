package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"surfcomm"
	"surfcomm/internal/cluster"
	"surfcomm/internal/service"
)

// qasmVariant returns a small, distinct circuit per m — distinct
// circuits give distinct routing keys, which is how the tests steer
// requests at specific replicas.
func qasmVariant(t *testing.T, m int) string {
	t.Helper()
	circ, err := surfcomm.NewGSE(surfcomm.GSEConfig{M: m, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := surfcomm.WriteQASM(&buf, circ); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func compileBody(t *testing.T, qasm string) []byte {
	t.Helper()
	b, err := json.Marshal(service.Request{QASM: qasm})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fakeReplica is a scriptable upstream: the handler can be swapped
// atomically and per-path hits are counted.
type fakeReplica struct {
	name    string
	srv     *httptest.Server
	hits    atomic.Uint64
	handler atomic.Value // func(http.ResponseWriter, *http.Request)
}

func (f *fakeReplica) setHandler(h http.HandlerFunc) { f.handler.Store(h) }

// ok200 answers every request with a tiny JSON body.
func ok200(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"cached":false}`)
}

func newFakeFleet(t *testing.T, names ...string) ([]*fakeReplica, []cluster.ReplicaConfig) {
	t.Helper()
	fleet := make([]*fakeReplica, len(names))
	cfgs := make([]cluster.ReplicaConfig, len(names))
	for i, name := range names {
		f := &fakeReplica{name: name}
		f.setHandler(ok200)
		f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			f.hits.Add(1)
			f.handler.Load().(http.HandlerFunc)(w, r)
		}))
		t.Cleanup(f.srv.Close)
		fleet[i] = f
		cfgs[i] = cluster.ReplicaConfig{Name: name, URL: f.srv.URL}
	}
	return fleet, cfgs
}

func newRouter(t *testing.T, cfg cluster.Config) (*cluster.Router, *httptest.Server) {
	t.Helper()
	rt, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv := httptest.NewServer(rt)
	t.Cleanup(srv.Close)
	return rt, srv
}

// ownerOf mirrors the router's key derivation so tests can predict
// placement.
func ownerOf(t *testing.T, names []string, qasm string) string {
	t.Helper()
	key, err := service.RoutingKey(service.Request{QASM: qasm})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.NewRing(names).Owner(key)
}

func postCompile(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// routerHealth fetches and decodes the router's own /healthz.
func routerHealth(t *testing.T, url string) cluster.RouterHealth {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestRouterAffinity pins the tentpole routing property: the same
// request body always lands on the ring-predicted owner, so each
// shard's cache stays hot.
func TestRouterAffinity(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	_, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs})

	seenReplica := map[string]bool{}
	for m := 4; m <= 15; m++ {
		qasm := qasmVariant(t, m)
		body := compileBody(t, qasm)
		want := ownerOf(t, names, qasm)
		for rep := 0; rep < 3; rep++ {
			resp := postCompile(t, srv.URL, body)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("m=%d: status %d", m, resp.StatusCode)
			}
			if got := resp.Header.Get(cluster.ReplicaHeader); got != want {
				t.Fatalf("m=%d repeat %d served by %q, ring owner is %q", m, rep, got, want)
			}
		}
		seenReplica[want] = true
	}
	if len(seenReplica) < 2 {
		t.Fatalf("12 distinct circuits all owned by %v — ring is not spreading", seenReplica)
	}
}

// TestRouterFailoverAndRecovery: a 503-ing owner is failed over, its
// breaker opens after the threshold (stopping further contact), and
// once it recovers the cooldown trial routes the key home again.
func TestRouterFailoverAndRecovery(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{
		Replicas:      cfgs,
		FailThreshold: 2,
		Cooldown:      150 * time.Millisecond,
	})

	qasm := qasmVariant(t, 9)
	body := compileBody(t, qasm)
	owner := ownerOf(t, names, qasm)
	var ownerRep *fakeReplica
	for _, f := range fleet {
		if f.name == owner {
			ownerRep = f
		}
	}
	ownerRep.setHandler(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
	})

	// Two requests: each fails on the owner and is served by the next
	// replica on the ring. The second failure trips the breaker.
	failoverTarget := ""
	for i := 0; i < 2; i++ {
		resp := postCompile(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want failover 200", i, resp.StatusCode)
		}
		got := resp.Header.Get(cluster.ReplicaHeader)
		if got == owner {
			t.Fatalf("request %d served by the 503-ing owner", i)
		}
		if failoverTarget == "" {
			failoverTarget = got
		} else if got != failoverTarget {
			t.Fatalf("failover flapped between %q and %q", failoverTarget, got)
		}
	}

	// Breaker open: the owner is skipped without being contacted.
	before := ownerRep.hits.Load()
	resp := postCompile(t, srv.URL, body)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-trip status %d", resp.StatusCode)
	}
	if ownerRep.hits.Load() != before {
		t.Fatal("open breaker did not stop traffic to the failed owner")
	}
	h := routerHealth(t, srv.URL)
	for _, rh := range h.Replicas {
		if rh.Name == owner && rh.Breaker == "closed" {
			t.Fatalf("owner breaker still closed in /healthz: %+v", rh)
		}
	}
	if h.Failovers == 0 {
		t.Fatal("healthz reports zero failovers")
	}

	// Owner recovers; after the cooldown the half-open trial lands on
	// it and re-closes the breaker.
	ownerRep.setHandler(ok200)
	time.Sleep(200 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := postCompile(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.Header.Get(cluster.ReplicaHeader) == owner {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered owner never re-acquired its key")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRouter429PassThrough: a rate-limited reply is the replica doing
// its job — it must relay verbatim with its Retry-After, not fail over
// to give the client a fresh bucket, and must not trip the breaker.
func TestRouter429PassThrough(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs, FailThreshold: 2})

	qasm := qasmVariant(t, 11)
	body := compileBody(t, qasm)
	owner := ownerOf(t, names, qasm)
	var others []*fakeReplica
	for _, f := range fleet {
		if f.name == owner {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "7")
				http.Error(w, "rate limited", http.StatusTooManyRequests)
			})
		} else {
			others = append(others, f)
		}
	}
	for i := 0; i < 3; i++ {
		resp := postCompile(t, srv.URL, body)
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 passed through", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("Retry-After %q, want 7", ra)
		}
		if got := resp.Header.Get(cluster.ReplicaHeader); got != owner {
			t.Fatalf("429 served by %q, want owner %q", got, owner)
		}
	}
	for _, f := range others {
		if f.hits.Load() != 0 {
			t.Fatalf("429 failed over to %s", f.name)
		}
	}
	// Three 429s with threshold 2 did not open the breaker.
	for _, rh := range routerHealth(t, srv.URL).Replicas {
		if rh.Name == owner && rh.Breaker != "closed" {
			t.Fatalf("429s tripped the owner breaker: %+v", rh)
		}
	}
}

// TestRouterAllOpenDegradesHonestly: when every replica is broken the
// router answers 503 with a Retry-After instead of hanging, and once
// all breakers are open it stops contacting upstreams entirely.
func TestRouterAllOpenDegradesHonestly(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{
		Replicas:      cfgs,
		FailThreshold: 1,
		Cooldown:      time.Minute, // long: no half-open trials during the test
	})
	for _, f := range fleet {
		f.setHandler(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		})
	}
	body := compileBody(t, qasmVariant(t, 8))

	resp := postCompile(t, srv.URL, body)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}

	// All breakers tripped (threshold 1): the next request is refused
	// locally, with zero upstream contact.
	var before uint64
	for _, f := range fleet {
		before += f.hits.Load()
	}
	resp = postCompile(t, srv.URL, body)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("refused status %d, want 503", resp.StatusCode)
	}
	var after uint64
	for _, f := range fleet {
		after += f.hits.Load()
	}
	if after != before {
		t.Fatal("refused request still contacted upstreams")
	}

	// Router readiness mirrors the breaker view.
	rr, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rr.Body) //nolint:errcheck
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with all breakers open, want 503", rr.StatusCode)
	}
	if h := routerHealth(t, srv.URL); h.Status != "degraded" || h.Refused == 0 {
		t.Fatalf("healthz = %+v, want degraded with refusals", h)
	}
}

// TestRouterStreamPassthroughUnbuffered proves NDJSON lines cross the
// router as they are flushed: the upstream blocks after its first line
// until the client has observably received it.
func TestRouterStreamPassthroughUnbuffered(t *testing.T) {
	names := []string{"r0", "r1"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs})

	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate() // never leave the upstream handler blocked

	stream := func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept"), service.NDJSONContentType) {
			ok200(w, r)
			return
		}
		w.Header().Set("Content-Type", service.NDJSONContentType)
		fmt.Fprintln(w, `{"stage":"resolved"}`)
		w.(http.Flusher).Flush()
		<-gate
		fmt.Fprintln(w, `{"cached":true}`)
	}
	for _, f := range fleet {
		f.setHandler(stream)
	}

	body := compileBody(t, qasmVariant(t, 10))
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", service.NDJSONContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != service.NDJSONContentType {
		t.Fatalf("Content-Type %q not relayed", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	// The first line arrived while the upstream is still blocked on the
	// gate — the router did not buffer the stream to completion.
	if got := sc.Text(); got != `{"stage":"resolved"}` {
		t.Fatalf("first line %q", got)
	}
	openGate()
	if !sc.Scan() {
		t.Fatalf("no final line: %v", sc.Err())
	}
	if got := sc.Text(); got != `{"cached":true}` {
		t.Fatalf("final line %q", got)
	}
}

// TestRouterBatchScatterGather: a mixed batch is split by owner,
// shards run on their own replicas, a dead owner's shard fails over,
// and the slots come back in request order.
func TestRouterBatchScatterGather(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs, FailThreshold: 3})

	// Each fake answers /batch by echoing its own name into every
	// slot's digest, so the reassembled reply reveals the placement.
	batchEcho := func(name string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var reqs []service.Request
			if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			out := make([]service.CompileResponse, len(reqs))
			for i := range out {
				out[i] = service.CompileResponse{Digest: name, Cached: true}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(out) //nolint:errcheck
		}
	}
	for _, f := range fleet {
		f.setHandler(batchEcho(f.name))
	}

	var reqs []service.Request
	var wantOwner []string
	ownersSeen := map[string]bool{}
	for m := 4; m <= 12; m++ {
		qasm := qasmVariant(t, m)
		reqs = append(reqs, service.Request{QASM: qasm})
		o := ownerOf(t, names, qasm)
		wantOwner = append(wantOwner, o)
		ownersSeen[o] = true
	}
	if len(ownersSeen) < 2 {
		t.Fatalf("test circuits all map to %v; need a multi-owner batch", ownersSeen)
	}
	body, _ := json.Marshal(reqs)

	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var slots []service.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&slots); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if len(slots) != len(reqs) {
		t.Fatalf("%d slots for %d requests", len(slots), len(reqs))
	}
	for i, slot := range slots {
		if slot.Digest != wantOwner[i] {
			t.Errorf("slot %d served by %q, owner is %q", i, slot.Digest, wantOwner[i])
		}
	}

	// Kill one owner: its shard fails over to another replica; every
	// slot still comes back without error.
	dead := wantOwner[0]
	for _, f := range fleet {
		if f.name == dead {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "down", http.StatusServiceUnavailable)
			})
		}
	}
	resp, err = http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	slots = nil
	if err := json.NewDecoder(resp.Body).Decode(&slots); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover batch status %d", resp.StatusCode)
	}
	for i, slot := range slots {
		if slot.Error != "" {
			t.Errorf("slot %d errored after failover: %s", i, slot.Error)
		}
		if wantOwner[i] == dead && slot.Digest == dead {
			t.Errorf("slot %d still served by the dead owner", i)
		}
	}
}

// TestRouterBatch429AllOrNothing: one shard's rate-limit rejection
// fails the whole batch with 429, matching single-replica semantics.
func TestRouterBatch429AllOrNothing(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs})

	var reqs []service.Request
	ownersSeen := map[string]bool{}
	for m := 4; m <= 12; m++ {
		qasm := qasmVariant(t, m)
		reqs = append(reqs, service.Request{QASM: qasm})
		ownersSeen[ownerOf(t, names, qasm)] = true
	}
	if len(ownersSeen) < 2 {
		t.Skip("circuits map to a single owner; cannot exercise multi-shard 429")
	}
	limited := ""
	for o := range ownersSeen {
		limited = o
		break
	}
	for _, f := range fleet {
		if f.name == limited {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", "3")
				http.Error(w, "limited", http.StatusTooManyRequests)
			})
		} else {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				var sub []service.Request
				json.NewDecoder(r.Body).Decode(&sub) //nolint:errcheck
				out := make([]service.CompileResponse, len(sub))
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(out) //nolint:errcheck
			})
		}
	}
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch status %d, want all-or-nothing 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want 3", ra)
	}
}

// TestRouterHedging: once the latency window is warm, a request whose
// owner stalls is hedged to the next replica and answered fast.
func TestRouterHedging(t *testing.T) {
	names := []string{"r0", "r1", "r2"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{
		Replicas:        cfgs,
		HedgePercentile: 0.5,
	})

	// Find one circuit per owner so we can warm the sampler on fast
	// replicas and then stall a different owner.
	byOwner := map[string][]byte{}
	for m := 4; m <= 20 && len(byOwner) < len(names); m++ {
		qasm := qasmVariant(t, m)
		o := ownerOf(t, names, qasm)
		if _, ok := byOwner[o]; !ok {
			byOwner[o] = compileBody(t, qasm)
		}
	}
	if len(byOwner) < 2 {
		t.Skip("not enough distinct owners among test circuits")
	}
	var slowOwner string
	for o := range byOwner {
		slowOwner = o
		break
	}
	const stall = 400 * time.Millisecond
	for _, f := range fleet {
		if f.name == slowOwner {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(stall)
				ok200(w, r)
			})
		}
	}

	// Warm the latency sampler past the 32 samples hedging needs with
	// fast requests on other owners.
	for o, body := range byOwner {
		if o == slowOwner {
			continue
		}
		for i := 0; i < 32; i++ {
			resp := postCompile(t, srv.URL, body)
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}

	start := time.Now()
	resp := postCompile(t, srv.URL, byOwner[slowOwner])
	elapsed := time.Since(start)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.ReplicaHeader); got == slowOwner {
		t.Fatalf("hedge did not win: served by stalled owner %q after %v", got, elapsed)
	}
	if elapsed >= stall {
		t.Fatalf("hedged request took %v, no faster than the stall %v", elapsed, stall)
	}
	if h := routerHealth(t, srv.URL); h.Hedges == 0 {
		t.Fatal("healthz reports zero hedges")
	}
}

// warmSampler sends n concurrent /compile requests through the router
// so its latency sampler holds n samples of each replica's current
// handler latency. No request starts with n samples already recorded,
// so none of them is hedged.
func warmSampler(t *testing.T, url string, n int, body []byte) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}()
	}
	wg.Wait()
}

// sleepThenOK answers 200 after a fixed delay.
func sleepThenOK(d time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		ok200(w, r)
	}
}

// TestRouterHedgedReplyRelayedWhole: with hedging armed, a reply that
// wins the race is relayed to the client in full. The winning attempt's
// context must outlive the relay; cancelling it early cuts the body
// short while the status line still says 200.
func TestRouterHedgedReplyRelayedWhole(t *testing.T) {
	fleet, cfgs := newFakeFleet(t, "r0", "r1")
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs, HedgePercentile: 0.5})
	for _, f := range fleet {
		f.setHandler(sleepThenOK(50 * time.Millisecond))
	}
	warmSampler(t, srv.URL, 32, compileBody(t, qasmVariant(t, 6)))

	const chunk, chunks = 64 << 10, 32
	payload := bytes.Repeat([]byte("x"), chunk)
	for _, f := range fleet {
		f.setHandler(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
			// Pace the chunks so the reply is still streaming when
			// the router starts relaying it.
			for i := 0; i < chunks; i++ {
				w.Write(payload) //nolint:errcheck
				w.(http.Flusher).Flush()
				time.Sleep(time.Millisecond)
			}
		})
	}
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err != nil || n != chunk*chunks {
		t.Fatalf("relayed %d of %d bytes (err %v)", n, chunk*chunks, err)
	}
}

// TestRouterHedgedPrimaryFailsFast: when the primary of an armed hedge
// fails before the hedge delay, no hedge fires — the partner is tried
// by ordinary failover, and the primary's breaker is charged once.
func TestRouterHedgedPrimaryFailsFast(t *testing.T) {
	names := []string{"r0", "r1"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs, HedgePercentile: 0.5, FailThreshold: 2})
	for _, f := range fleet {
		f.setHandler(sleepThenOK(50 * time.Millisecond))
	}
	warmSampler(t, srv.URL, 32, compileBody(t, qasmVariant(t, 6)))

	qasm := qasmVariant(t, 9)
	owner := ownerOf(t, names, qasm)
	for _, f := range fleet {
		if f.name == owner {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "down", http.StatusServiceUnavailable)
			})
		} else {
			f.setHandler(ok200)
		}
	}
	resp := postCompile(t, srv.URL, compileBody(t, qasm))
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want failover 200", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.ReplicaHeader); got == owner {
		t.Fatalf("served by the failing primary %q", got)
	}
	h := routerHealth(t, srv.URL)
	if h.Hedges != 0 || h.Failovers != 1 {
		t.Fatalf("hedges=%d failovers=%d, want 0 and 1", h.Hedges, h.Failovers)
	}
	for _, rh := range h.Replicas {
		if rh.Name == owner && (rh.Failed != 1 || rh.Breaker != "closed") {
			t.Fatalf("primary %+v, want one failure and a closed breaker", rh)
		}
	}
}

// TestRouterBatchShardFailover: a shard whose owner answers 503 is
// answered by the next replica, and every slot keeps its place.
func TestRouterBatchShardFailover(t *testing.T) {
	names := []string{"r0", "r1"}
	fleet, cfgs := newFakeFleet(t, names...)
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs})
	ring := cluster.NewRing(names)

	var reqs []service.Request
	var owners []string
	for i := 0; i < 8; i++ {
		req := service.Request{QASM: qasmVariant(t, 4+i), Distance: 2*i + 3}
		key, err := service.RoutingKey(req)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
		owners = append(owners, ring.Owner(key))
	}
	dead := owners[0]
	survivor := names[0]
	if survivor == dead {
		survivor = names[1]
	}
	if !strings.Contains(strings.Join(owners, " "), survivor) {
		t.Fatalf("every slot owned by %s; need a two-shard batch", dead)
	}
	for _, f := range fleet {
		if f.name == dead {
			f.setHandler(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "down", http.StatusServiceUnavailable)
			})
			continue
		}
		name := f.name
		f.setHandler(func(w http.ResponseWriter, r *http.Request) {
			var sub []service.Request
			if err := json.NewDecoder(r.Body).Decode(&sub); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			out := make([]service.CompileResponse, len(sub))
			for i, s := range sub {
				out[i] = service.CompileResponse{Digest: fmt.Sprintf("%s/%d", name, s.Distance)}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(out) //nolint:errcheck
		})
	}
	body, _ := json.Marshal(reqs)
	resp, err := http.Post(srv.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var slots []service.CompileResponse
	if err := json.NewDecoder(resp.Body).Decode(&slots); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(slots) != len(reqs) {
		t.Fatalf("status %d, %d slots for %d requests", resp.StatusCode, len(slots), len(reqs))
	}
	for i, slot := range slots {
		if want := fmt.Sprintf("%s/%d", survivor, reqs[i].Distance); slot.Digest != want || slot.Error != "" {
			t.Errorf("slot %d = %+v, want digest %q", i, slot, want)
		}
	}
	if h := routerHealth(t, srv.URL); h.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", h.Failovers)
	}
}

// TestRouterExhaustedPassesRetryAfter: when every replica answers 503
// with a Retry-After, the router's own 503 carries that Retry-After,
// for single requests and for batches alike.
func TestRouterExhaustedPassesRetryAfter(t *testing.T) {
	fleet, cfgs := newFakeFleet(t, "r0", "r1", "r2")
	_, srv := newRouter(t, cluster.Config{Replicas: cfgs, FailThreshold: 10})
	for _, f := range fleet {
		f.setHandler(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "draining", http.StatusServiceUnavailable)
		})
	}
	var batch []service.Request
	for m := 4; m <= 9; m++ {
		batch = append(batch, service.Request{QASM: qasmVariant(t, m)})
	}
	batchBody, _ := json.Marshal(batch)
	for path, body := range map[string][]byte{
		"/compile": compileBody(t, qasmVariant(t, 8)),
		"/batch":   batchBody,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("%s: Retry-After %q, want 7", path, ra)
		}
	}
}
