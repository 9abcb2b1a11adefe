// Command surfrouter is the fleet front door: a consistent-hash
// reverse proxy that shards compile traffic across a pool of surfcommd
// replicas by plan digest, so each replica's LRU cache and disk store
// stay hot for the slice of the keyspace it owns.
//
//	surfrouter -addr :8700 \
//	    -replica a=http://10.0.0.1:8723 \
//	    -replica b=http://10.0.0.2:8723 \
//	    -replica c=http://10.0.0.3:8723
//
// Robustness features (see internal/cluster):
//
//   - Per-replica circuit breakers (Closed→Open→Half-Open) fed by both
//     live proxy outcomes and an active /readyz prober.
//   - Failover to at most three replicas along each key's rendezvous
//     order on 5xx or connection failure; 429s relay verbatim (never
//     shop for a fresh rate bucket); all-owners-open degrades to an
//     honest 503 with Retry-After.
//   - Optional hedging: with -hedge-percentile, a request that outlives
//     that percentile of recent latencies (once 32 are recorded) is
//     raced against the next replica on the ring; the winner's reply is
//     relayed whole.
//   - NDJSON streams (/compile with Accept: application/x-ndjson, and
//     the full-duplex /decode) pass through unbuffered, flushed per
//     chunk.
//
// The router overwrites X-Forwarded-For with the true client address;
// replicas started with -trust-forwarded use it as the rate-limit
// identity, giving one token bucket per client across the whole fleet.
//
// GET /healthz is the router's own cluster view (breaker states,
// failover/hedge/refusal counters, relay latency percentiles);
// GET /readyz answers 200 while at least one replica is routable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"surfcomm/internal/cluster"
	"surfcomm/internal/debugserve"
)

// replicaFlags collects repeated -replica name=url (or bare url)
// arguments.
type replicaFlags []cluster.ReplicaConfig

func (rf *replicaFlags) String() string {
	parts := make([]string, len(*rf))
	for i, rc := range *rf {
		parts[i] = rc.Name + "=" + rc.URL
	}
	return strings.Join(parts, ",")
}

func (rf *replicaFlags) Set(v string) error {
	name, u, ok := strings.Cut(v, "=")
	if !ok {
		name, u = v, v
	}
	if name == "" || u == "" {
		return fmt.Errorf("replica %q: want name=url", v)
	}
	*rf = append(*rf, cluster.ReplicaConfig{Name: name, URL: u})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("surfrouter: ")
	addr := flag.String("addr", ":8700", "listen address")
	var replicas replicaFlags
	flag.Var(&replicas, "replica", "replica as name=url (repeatable); bare url uses the url as the ring name")
	failThreshold := flag.Int("fail-threshold", cluster.DefaultFailThreshold, "consecutive failures before a breaker opens")
	cooldown := flag.Duration("cooldown", cluster.DefaultCooldown, "open-breaker cooldown before a half-open trial")
	probeInterval := flag.Duration("probe-interval", time.Second, "active /readyz probe period")
	hedgePercentile := flag.Float64("hedge-percentile", 0, "hedge requests outliving this latency percentile, e.g. 0.95 (0 = off)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain bound")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this address via a dedicated mux (empty = off; keep it private)")
	flag.Parse()

	if len(replicas) == 0 {
		log.Fatal("at least one -replica is required")
	}
	if *pprofAddr != "" {
		stopPprof, err := debugserve.Start(*pprofAddr, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		defer stopPprof()
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:        replicas,
		FailThreshold:   *failThreshold,
		Cooldown:        *cooldown,
		ProbeInterval:   *probeInterval,
		HedgePercentile: *hedgePercentile,
		Logf:            log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()

	srv := &http.Server{
		Addr:    *addr,
		Handler: rt,
		// Same slow-client posture as surfcommd: no write timeout
		// (streams and long compiles are legitimate), bounded header
		// reads. No ReadTimeout: /decode keeps its request body open
		// for the life of the stream.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("routing %d replicas on %s (breaker %d/%s, probe %s)",
			len(replicas), *addr, *failThreshold, *cooldown, *probeInterval)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-sigCtx.Done():
	}

	log.Printf("shutting down (drain bound %s)…", *shutdownTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Fatal(err)
	}
	rt.Close()
}
