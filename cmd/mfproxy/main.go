// Command mfproxy is the mfserve cluster tier: a wire-v2-speaking L7
// proxy in front of N mfserved backends. It routes single-frame
// requests by consistent hash over canonical operand bits with
// bounded-load rebalancing, serves repeats from a content-addressed
// result cache (exact by bit-determinism), shards streaming reductions
// across backends and merges their raw superaccumulators, and fails
// over between replicas on retryable errors with per-backend health
// scoring.
//
// Usage:
//
//	mfproxy -backends host:port,host:port,... [-addr host:port]
//	        [-cache-bytes 67108864] [-max-inflight 1024]
//	        [-fail-threshold 3] [-probe-after 500ms] [-load-factor 1.25]
//	        [-reduce-shards 2] [-replay-budget 33554432] [-seed 0]
//	        [-idle-timeout 2m] [-write-timeout 30s]
//	        [-debug-addr host:port] [-drain-timeout 10s]
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes,
// in-flight forwards and open reduction streams finish (bounded by
// -drain-timeout), then the process exits. With -debug-addr set, an
// HTTP endpoint serves the proxy's counters at /debug/vars (the
// "mfproxy" object, keyed like proxy.Snapshot's JSON) and
// net/http/pprof profiles at /debug/pprof/.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on the default mux, served via -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"multifloats/serve/proxy"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:7334", "TCP listen address")
		backends      = flag.String("backends", "", "comma-separated mfserved addresses (required, 1..64)")
		debugAddr     = flag.String("debug-addr", "", "HTTP listen address for expvar + pprof (empty = disabled)")
		cacheBytes    = flag.Int64("cache-bytes", 64<<20, "result-cache budget in bytes (negative = caching disabled)")
		maxInflight   = flag.Int("max-inflight", 1024, "concurrently forwarded single-frame requests before shedding")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive retryable failures that eject a backend")
		probeAfter    = flag.Duration("probe-after", 500*time.Millisecond, "ejection cooldown before a half-open probe (plus up to 50% jitter)")
		loadFactor    = flag.Float64("load-factor", 1.25, "bounded-load multiple of the fleet-average in-flight count")
		reduceShards  = flag.Int("reduce-shards", 2, "backends each streamed reduction is split across")
		replayBudget  = flag.Int64("replay-budget", 32<<20, "bytes of reduction chunks buffered per stream for failover replay")
		seed          = flag.Int64("seed", 0, "probe-jitter RNG seed (0 = time-based)")
		idleTimeout   = flag.Duration("idle-timeout", 2*time.Minute, "close a downstream connection that takes longer than this to deliver its next frame (negative = never)")
		writeTimeout  = flag.Duration("write-timeout", 30*time.Second, "bound on each write+flush of a downstream connection's queued responses; a peer that stops reading is cut off after 0.75-1x of it (negative = never)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*backends, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("mfproxy: -backends is required (comma-separated mfserved addresses)")
	}

	p, err := proxy.New(proxy.Config{
		Addr:          *addr,
		Backends:      addrs,
		CacheBytes:    *cacheBytes,
		MaxInflight:   *maxInflight,
		FailThreshold: *failThreshold,
		ProbeAfter:    *probeAfter,
		LoadFactor:    *loadFactor,
		ReduceShards:  *reduceShards,
		ReplayBudget:  *replayBudget,
		Seed:          *seed,
		IdleTimeout:   *idleTimeout,
		WriteTimeout:  *writeTimeout,
	})
	if err != nil {
		log.Fatalf("mfproxy: %v", err)
	}
	if err := p.Listen(); err != nil {
		log.Fatalf("mfproxy: %v", err)
	}
	log.Printf("mfproxy: listening on %s in front of %d backends (cache=%dB shards=%d load-factor=%.2f)",
		p.Addr(), len(addrs), *cacheBytes, *reduceShards, *loadFactor)

	if *debugAddr != "" {
		expvar.Publish("mfproxy", expvar.Func(func() any { return p.Stats().Snapshot() }))
		go func() {
			log.Printf("mfproxy: debug HTTP on http://%s/debug/vars and /debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("mfproxy: debug HTTP: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- p.Serve() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("mfproxy: %v — draining (budget %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := p.Shutdown(ctx)
		cancel()
		if serveErr := <-errc; serveErr != nil {
			log.Printf("mfproxy: serve: %v", serveErr)
		}
		if err != nil {
			log.Fatalf("mfproxy: drain incomplete: %v", err)
		}
		snap := p.Stats().Snapshot()
		fmt.Printf("mfproxy: drained cleanly — %d requests, %d cache hits / %d misses, %d failovers, %d ejections, %d reshards\n",
			snap.Requests, snap.CacheHits, snap.CacheMisses, snap.Failovers, snap.Ejections, snap.Reshards)
	case err := <-errc:
		if err != nil {
			log.Fatalf("mfproxy: %v", err)
		}
	}
}
