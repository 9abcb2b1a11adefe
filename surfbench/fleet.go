package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"surfcomm/internal/cluster"
	"surfcomm/internal/service"
	"surfcomm/internal/store"
)

// node is one in-process surfcommd replica on a loopback listener.
type node struct {
	name string
	svc  *service.Service
	srv  *httptest.Server
}

// fleet is the serving topology every serving workload drives: n
// replicas behind one consistent-hash router, all in this process,
// all on loopback — the same handlers surfcommd and surfrouter mount.
type fleet struct {
	nodes  []*node
	router *cluster.Router
	front  *httptest.Server
	ring   *cluster.Ring
	hc     *http.Client
}

// startFleet starts n replicas at the daemon defaults (d=9, Policy 6,
// seed 1, default LRU and queue) and the router, with its health
// prober at the default one-second interval, in front of them. A
// non-empty storeRoot gives each replica a crash-safe plan store in
// its own directory under it.
func startFleet(n int, storeRoot string) (*fleet, error) {
	f := &fleet{}
	var reps []cluster.ReplicaConfig
	var names []string
	for i := 0; i < n; i++ {
		cfg := service.Config{TrustForwardedFor: true}
		if storeRoot != "" {
			st, err := store.Open(filepath.Join(storeRoot, fmt.Sprintf("r%d", i)), nil)
			if err != nil {
				f.close()
				return nil, err
			}
			cfg.Store = st
		}
		nd := &node{name: fmt.Sprintf("r%d", i), svc: service.New(nil, cfg)}
		nd.srv = httptest.NewServer(service.NewHandler(nd.svc))
		f.nodes = append(f.nodes, nd)
		reps = append(reps, cluster.ReplicaConfig{Name: nd.name, URL: nd.srv.URL})
		names = append(names, nd.name)
	}
	rt, err := cluster.New(cluster.Config{Replicas: reps})
	if err != nil {
		f.close()
		return nil, err
	}
	rt.Start()
	f.router = rt
	f.front = httptest.NewServer(rt)
	f.ring = cluster.NewRing(names)
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	f.hc = &http.Client{Transport: t}
	return f, nil
}

// close stops every server and waits for in-flight handlers and
// write-behind store saves to finish.
func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, nd := range f.nodes {
		nd.srv.Close()
		nd.svc.Close()
	}
	if f.hc != nil {
		f.hc.CloseIdleConnections()
	}
}

// owner returns the replica the router sends a routing key to.
func (f *fleet) owner(key string) *node {
	name := f.ring.Owner(key)
	for _, nd := range f.nodes {
		if nd.name == name {
			return nd
		}
	}
	return f.nodes[0]
}

// compileReply is one /compile exchange as the client saw it.
type compileReply struct {
	status int
	resp   service.CompileResponse
}

// postCompile sends one pre-marshalled /compile body to base.
func postCompile(hc *http.Client, base string, body []byte) (compileReply, error) {
	resp, err := hc.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return compileReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return compileReply{}, err
	}
	out := compileReply{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out.resp); err != nil {
			return out, fmt.Errorf("compile reply: %w", err)
		}
	}
	return out, nil
}

// stats is a snapshot of every replica's cache, admission and store
// counters.
type stats struct {
	hits, misses, evictions, shed uint64
	modHits, modMisses            uint64
	puts, putErrors, diskHits     uint64
	lateWindows                   uint64
}

// fleetStats sums the counters over the replicas.
func fleetStats(f *fleet) stats {
	var s stats
	for _, nd := range f.nodes {
		c := nd.svc.Stats()
		s.hits += c.Hits
		s.misses += c.Misses
		s.evictions += c.Evictions
		s.modHits += c.ModuleHits
		s.modMisses += c.ModuleMisses
		s.shed += nd.svc.AdmissionStats().Shed + nd.svc.DecodeStats().Shed
		s.lateWindows += nd.svc.DecodeStats().LateWindows
		if st := nd.svc.StoreStats(); st != nil {
			s.puts += st.Puts
			s.putErrors += st.PutErrors
			s.diskHits += st.Hits
		}
	}
	return s
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (a stats) hitFrac(b stats) float64 {
	return frac(a.hits-b.hits, a.hits-b.hits+a.misses-b.misses)
}

// setDeltas stores the named service and store counter deltas of a
// traced replay: each replay names the counters its workload moves.
func (o *outcome) setDeltas(before, after stats, names ...string) {
	all := map[string]float64{
		"service.cache_hit_frac":  after.hitFrac(before),
		"service.module_hit_frac": frac(after.modHits-before.modHits, after.modHits-before.modHits+after.modMisses-before.modMisses),
		"service.evictions":       float64(after.evictions - before.evictions),
		"service.shed":            float64(after.shed - before.shed),
		"service.late_windows":    float64(after.lateWindows - before.lateWindows),
		"store.puts":              float64(after.puts - before.puts),
		"store.put_errors":        float64(after.putErrors - before.putErrors),
		"store.disk_hits":         float64(after.diskHits - before.diskHits),
	}
	for _, n := range names {
		o.metrics[n] = all[n]
	}
}

// setRouterDeltas stores the router counter deltas of a traced replay.
func (o *outcome) setRouterDeltas(before, after routerSnap) {
	fwd := after.forwarded - before.forwarded
	o.metrics["cluster.forwarded"] = float64(fwd)
	o.metrics["cluster.failovers"] = float64(after.failovers - before.failovers)
	o.metrics["cluster.hedges"] = float64(after.hedges - before.hedges)
	share := 0.0
	for name, n := range after.served {
		share = max(share, frac(n-before.served[name], fwd))
	}
	o.metrics["cluster.balance_max_share"] = share
}

// routerSnap is a snapshot of the router's counters.
type routerSnap struct {
	forwarded, failovers, hedges uint64
	served                       map[string]uint64
}

// snapRouter reads the router's counters from its /healthz.
func snapRouter(f *fleet) (routerSnap, error) {
	resp, err := f.hc.Get(f.front.URL + "/healthz")
	if err != nil {
		return routerSnap{}, err
	}
	defer resp.Body.Close()
	var h cluster.RouterHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return routerSnap{}, fmt.Errorf("router healthz: %w", err)
	}
	s := routerSnap{forwarded: h.Forwarded, failovers: h.Failovers, hedges: h.Hedges, served: map[string]uint64{}}
	for _, r := range h.Replicas {
		s.served[r.Name] = r.Served
	}
	return s, nil
}
