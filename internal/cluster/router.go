package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surfcomm/internal/service"
)

// ReplicaHeader is the response header naming which replica served a
// routed request — the load generator uses it to measure keyspace
// balance, and operators use it to attribute tail latency.
const ReplicaHeader = "X-Surfcomm-Replica"

// maxProxyBody caps the buffered request body, mirroring the replicas'
// own decode cap so the router never buffers more than a replica would
// accept.
const maxProxyBody = 16 << 20

// ReplicaConfig names one surfcommd replica.
type ReplicaConfig struct {
	Name string // stable identity on the ring (survives URL changes)
	URL  string // base URL, e.g. http://127.0.0.1:8723
}

// Config tunes the router.
type Config struct {
	Replicas []ReplicaConfig

	// FailThreshold / Cooldown tune the per-replica breakers (zero
	// selects the package defaults).
	FailThreshold int
	Cooldown      time.Duration

	// ProbeInterval is the period of the active health prober started
	// by Start. Zero selects 1s.
	ProbeInterval time.Duration

	// HedgePercentile, when in (0,1), arms request hedging: once a
	// request outlives that percentile of recent latencies, a second
	// copy is raced against the next replica on the ring and the first
	// usable answer wins. Zero disables hedging.
	HedgePercentile float64

	// Transport overrides the upstream round-tripper (tests).
	Transport http.RoundTripper

	// Logf receives operational events (failovers, breaker trips);
	// nil discards them.
	Logf func(format string, args ...any)
}

const (
	// maxAttempts bounds failover: how many distinct replicas one
	// request may be sent to (fewer when the fleet is smaller).
	maxAttempts = 3
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// hedgeMinSamples is how many latency samples must exist before
	// hedging arms: hedging off a cold sampler would fire on noise.
	hedgeMinSamples = 32
)

// replica is one upstream plus its health state.
type replica struct {
	name   string
	base   *url.URL
	br     *Breaker
	served atomic.Uint64 // responses relayed from this replica
	failed atomic.Uint64 // connection errors + 5xx from this replica
	// calDigest is the replica's last-probed calibration digest
	// ("uncalibrated" for replicas compiling on the uniform device) —
	// replicas disagreeing here split the plan keyspace, so the prober
	// logs every change and /healthz reports the fleet view.
	calDigest atomic.Value // string
}

// Router is the consistent-hash front door: it owns the ring, the
// breakers, the prober, and the failover/hedging proxy logic. It is an
// http.Handler serving the same endpoint surface as a single surfcommd,
// plus its own /healthz (cluster view) and /readyz (≥1 replica
// routable).
type Router struct {
	cfg      Config
	ring     *Ring
	replicas map[string]*replica
	client   *http.Client
	mux      *http.ServeMux
	lat      *sampler
	logf     func(string, ...any)

	forwarded atomic.Uint64 // requests relayed end to end
	failovers atomic.Uint64 // attempts beyond the first
	hedges    atomic.Uint64 // hedge attempts fired
	refused   atomic.Uint64 // 503s issued because no replica was routable
	rr        atomic.Uint64 // round-robin cursor for unkeyed streams

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	startOnce sync.Once
	stopOnce  sync.Once
}

// New builds a router over the replica set. It does not start the
// prober; call Start for that (tests drive breakers directly).
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: no replicas configured")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rt := &Router{
		cfg:       cfg,
		replicas:  make(map[string]*replica, len(cfg.Replicas)),
		lat:       newSampler(0),
		logf:      logf,
		probeStop: make(chan struct{}),
	}
	names := make([]string, 0, len(cfg.Replicas))
	for _, rc := range cfg.Replicas {
		name := rc.Name
		if name == "" {
			name = rc.URL
		}
		u, err := url.Parse(rc.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: replica %q: bad URL %q", name, rc.URL)
		}
		if _, dup := rt.replicas[name]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica name %q", name)
		}
		rt.replicas[name] = &replica{
			name: name,
			base: u,
			br:   NewBreaker(cfg.FailThreshold, cfg.Cooldown),
		}
		names = append(names, name)
	}
	rt.ring = NewRing(names)
	transport := cfg.Transport
	if transport == nil {
		// Per-replica connection pools sized for a fleet front door.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = 64
		transport = t
	}
	rt.client = &http.Client{Transport: transport}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", rt.handleKeyed)
	mux.HandleFunc("POST /estimate", rt.handleKeyed)
	mux.HandleFunc("POST /batch", rt.handleBatch)
	mux.HandleFunc("POST /decode", rt.handleDecodeStream)
	mux.HandleFunc("GET /models", rt.handleUnkeyed)
	mux.HandleFunc("GET /healthz", rt.handleHealth)
	mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux = mux
	return rt, nil
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Start launches the active health prober. Safe to call once.
func (rt *Router) Start() {
	rt.startOnce.Do(func() {
		interval := rt.cfg.ProbeInterval
		if interval <= 0 {
			interval = time.Second
		}
		rt.probeWG.Add(1)
		go rt.probeLoop(interval)
	})
}

// Close stops the prober and idle upstream connections.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.probeStop) })
	rt.probeWG.Wait()
	rt.client.CloseIdleConnections()
}

func (rt *Router) probeLoop(interval time.Duration) {
	defer rt.probeWG.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-rt.probeStop:
			return
		case <-ticker.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, rep := range rt.replicas {
		// An Open breaker inside its cooldown is left alone: probing it
		// early would either flap it HalfOpen ahead of schedule or pile
		// connection attempts on a replica that is likely restarting.
		if rep.br.State() == Open && rep.br.RetryAfter() > 0 {
			continue
		}
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.JoinPath("/readyz").String(), nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				rep.br.Failure()
				return
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if rep.br.State() != Closed {
					rt.logf("cluster: probe closed breaker for %s", rep.name)
				}
				rep.br.Success()
				rt.probeCalibration(ctx, rep)
			} else {
				rep.br.Failure()
			}
		}(rep)
	}
	wg.Wait()
}

// probeCalibration relays a ready replica's /healthz calibration view
// into the probe log: the digest identifies which snapshot the replica
// compiles under, so a fleet serving divergent calibrations (one
// replica restarted onto a fresher snapshot) is visible the moment the
// prober sees it. Only changes are logged; probe failures here are
// silent (readiness already passed — a slow /healthz is not an outage).
func (rt *Router) probeCalibration(ctx context.Context, rep *replica) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.JoinPath("/healthz").String(), nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
		return
	}
	var h struct {
		Calibration *service.CalibrationHealth `json:"calibration"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&h) != nil {
		return
	}
	digest := "uncalibrated"
	if h.Calibration != nil && h.Calibration.Digest != "" {
		digest = h.Calibration.Digest
	}
	if prev, _ := rep.calDigest.Swap(digest).(string); prev != digest {
		if h.Calibration != nil {
			rt.logf("cluster: probe: %s calibration %q digest %.12s… age %.0fs",
				rep.name, h.Calibration.Name, digest, h.Calibration.AgeSeconds)
		} else {
			rt.logf("cluster: probe: %s uncalibrated", rep.name)
		}
	}
}

// rankedAllowed returns the failover sequence for key, filtered to
// replicas whose breakers admit traffic right now, capped at the
// attempt budget. An empty key falls back to ring order (requests the
// router cannot key still deserve failover).
func (rt *Router) rankedAllowed(key string) []*replica {
	var names []string
	if key != "" {
		names = rt.ring.Ranked(key)
	} else {
		names = rt.ring.Names()
	}
	out := make([]*replica, 0, maxAttempts)
	for _, n := range names {
		rep := rt.replicas[n]
		if !rep.br.Allow() {
			continue
		}
		out = append(out, rep)
		if len(out) == maxAttempts {
			break
		}
	}
	return out
}

// refuse answers 503 once no replica can serve a request. A replica's
// own Retry-After (a draining replica says when to come back) passes
// through; otherwise the earliest breaker reopening tells the client
// when a trial will next be admitted, rather than hanging or lying with
// a 200.
func (rt *Router) refuse(w http.ResponseWriter, retryAfter string) {
	rt.refused.Add(1)
	if retryAfter == "" {
		earliest := time.Duration(math.MaxInt64)
		for _, rep := range rt.replicas {
			earliest = min(earliest, rep.br.RetryAfter())
		}
		retryAfter = strconv.Itoa(int(earliest/time.Second) + 1)
	}
	w.Header().Set("Retry-After", retryAfter)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck
		"error": "cluster: no replica available; every breaker is open or every attempt failed",
	})
}

// readBody buffers a request body up to maxProxyBody, answering 400 or
// 413 itself when it cannot.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBody+1))
	if err != nil {
		http.Error(w, "cluster: reading request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if len(body) > maxProxyBody {
		http.Error(w, "cluster: request body too large", http.StatusRequestEntityTooLarge)
		return nil, false
	}
	return body, true
}

// handleKeyed serves /compile and /estimate: buffer the body, derive
// the routing key from the request content, and forward along the
// key's failover sequence.
func (rt *Router) handleKeyed(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	key := ""
	var req service.Request
	if json.Unmarshal(body, &req) == nil {
		// RoutingKey failures (empty or malformed QASM) leave the key
		// empty: the request is forwarded unkeyed and the replica
		// answers with its usual 400.
		key, _ = service.RoutingKey(req) //nolint:errcheck
	}
	rt.forward(w, r, key, body)
}

// handleUnkeyed serves body-less GETs (/models): any replica can
// answer, so walk ring order with failover.
func (rt *Router) handleUnkeyed(w http.ResponseWriter, r *http.Request) {
	rt.forward(w, r, "", nil)
}

// forward proxies one buffered (or body-less) request along its key's
// failover sequence and relays the first usable response. NDJSON
// responses are flushed chunk-by-chunk so streaming compiles pass
// through unbuffered; a stream is never hedged, because two live feeds
// cannot race for one client connection.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	stream := strings.Contains(r.Header.Get("Accept"), service.NDJSONContentType)
	retryAfter, err := rt.attempt(r, rt.rankedAllowed(key), body, !stream,
		func(rep *replica, resp *http.Response, took time.Duration) error {
			rt.forwarded.Add(1)
			rt.lat.Observe(took)
			rt.relay(w, resp, rep)
			return nil
		})
	if err != nil {
		rt.refuse(w, retryAfter)
	}
}

// failover reports whether one upstream result is a replica-level
// failure. Connection errors and 5xx fail over; 429 is the replica
// correctly enforcing a client's rate limit — failing over would let
// clients shop for a fresh bucket, so it relays as-is; all other
// statuses (2xx and client errors) relay and count as healthy.
func failover(resp *http.Response, err error) bool {
	return err != nil || resp.StatusCode >= 500
}

// errNoReplica is attempt's error when no replica was tried at all.
var errNoReplica = errors.New("no replica available")

// attempt is the router's one failover loop. It sends a buffered (or,
// with an empty body, body-less) request along ranked until a replica
// answers without failing over, and hands that reply to use while the
// attempt's context is still live; attempt closes the body afterwards.
// An error from use rejects the reply (a batch shard it could not read)
// and moves on to the next replica.
//
// With hedge set and the latency sampler armed, a first attempt that
// outlives the hedge delay is raced against the next replica: the first
// usable reply wins, and only the losing attempt is cancelled. A first
// attempt that fails before the delay is followed by ordinary failover.
//
// On failure attempt returns the last error and the last Retry-After a
// failing replica sent (empty when none did).
func (rt *Router) attempt(r *http.Request, ranked []*replica, body []byte, hedge bool,
	use func(rep *replica, resp *http.Response, took time.Duration) error) (retryAfter string, err error) {
	type result struct {
		i    int
		resp *http.Response
		err  error
	}
	var (
		race     chan result          // where a hedged pair reports; nil when unhedged
		fire     <-chan time.Time     // the hedge timer, nil once spent
		launch   func()               // starts ranked[next] on its own goroutine
		cancels  []context.CancelFunc // per launched attempt, in ranked order
		next     int
		inflight int
		start    = time.Now()
	)
	if hedge && len(ranked) > 1 {
		if delay, ok := rt.hedgeDelay(); ok {
			race = make(chan result)
			done := make(chan struct{})
			timer := time.NewTimer(delay)
			defer func() {
				timer.Stop()
				close(done) // unreceived attempts discard their own replies
				for _, cancel := range cancels {
					cancel()
				}
			}()
			fire = timer.C
			launch = func() {
				i := next
				next++
				inflight++
				ctx, cancel := context.WithCancel(r.Context())
				cancels = append(cancels, cancel)
				go func() {
					resp, err := rt.send(ctx, ranked[i], r, bytes.NewReader(body))
					select {
					case race <- result{i, resp, err}:
					case <-done:
						discard(resp)
					}
				}()
			}
			launch()
		}
	}
	err = errNoReplica
	for {
		var res result
		switch {
		case inflight > 0:
			select {
			case <-fire:
				fire = nil
				rt.hedges.Add(1)
				launch()
				continue
			case res = <-race:
				inflight--
			}
		case next == len(ranked):
			return retryAfter, err
		default:
			res.i = next
			next++
			start = time.Now()
			res.resp, res.err = rt.send(r.Context(), ranked[res.i], r, bytes.NewReader(body))
		}
		rep := ranked[res.i]
		if failover(res.resp, res.err) {
			rep.fail()
			err = res.err
			if res.resp != nil {
				err = fmt.Errorf("%s answered %s", rep.name, res.resp.Status)
				if ra := res.resp.Header.Get("Retry-After"); ra != "" {
					retryAfter = ra
				}
				discard(res.resp)
			}
		} else {
			rep.br.Success()
			rep.served.Add(1)
			if inflight > 0 {
				// The race is decided: cancel the loser now.
				cancels[1-res.i]()
				inflight = 0
			}
			err = use(rep, res.resp, time.Since(start))
			res.resp.Body.Close()
			if err == nil {
				return retryAfter, nil
			}
		}
		if inflight == 0 {
			fire = nil // only the first attempt is hedged
			if next < len(ranked) {
				rt.failovers.Add(1)
				rt.logf("cluster: failing over %s %s (%v)", r.Method, r.URL.Path, err)
			}
		}
	}
}

// hedgeDelay reports the armed hedge trigger, if any.
func (rt *Router) hedgeDelay() (time.Duration, bool) {
	p := rt.cfg.HedgePercentile
	if p <= 0 || p >= 1 {
		return 0, false
	}
	d, n := rt.lat.Percentile(p)
	if n < hedgeMinSamples || d <= 0 {
		return 0, false
	}
	return d, true
}

// send builds the upstream copy of r for one replica and sends it. The
// router is the trust boundary: X-Forwarded-For is overwritten, never
// appended, so a client-supplied value can't spoof another's rate
// bucket on replicas running -trust-forwarded.
func (rt *Router) send(ctx context.Context, rep *replica, r *http.Request, body io.Reader) (*http.Response, error) {
	u := rep.base.JoinPath(r.URL.Path)
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, r.Method, u.String(), body)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	client, _, splitErr := net.SplitHostPort(r.RemoteAddr)
	if splitErr != nil {
		client = r.RemoteAddr
	}
	if client != "" {
		req.Header.Set(service.ForwardedForHeader, client)
	}
	return rt.client.Do(req)
}

// discard drains and closes a response we will not relay.
func discard(resp *http.Response) {
	if resp == nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10)) //nolint:errcheck
	resp.Body.Close()
}

// fail records a replica-level failure on both the breaker and the
// per-replica counter.
func (rep *replica) fail() {
	rep.br.Failure()
	rep.failed.Add(1)
}

// copyHeaders copies end-to-end headers, dropping hop-by-hop ones.
func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		switch http.CanonicalHeaderKey(k) {
		case "Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
			"Te", "Trailer", "Transfer-Encoding", "Upgrade":
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

// relay copies one upstream response to the client, flushing per chunk
// when the payload is a stream. The caller closes the body.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, rep *replica) {
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set(ReplicaHeader, rep.name)
	w.WriteHeader(resp.StatusCode)
	flushEach := strings.Contains(resp.Header.Get("Content-Type"), service.NDJSONContentType)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flushEach {
				rc.Flush() //nolint:errcheck // dead client surfaces on the next write
			}
		}
		if err != nil {
			return
		}
	}
}
