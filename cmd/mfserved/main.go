// Command mfserved is the mfserve daemon: a TCP service exposing the
// extended-precision scalar and BLAS kernels over the serve/wire
// protocol, with per-(op,width) request batching on the internal/blas
// worker pool.
//
// Usage:
//
//	mfserved [-addr host:port] [-batch-window 200us] [-max-batch 256]
//	         [-queue 4096] [-workers N] [-max-dim 1048576]
//	         [-idle-timeout 2m] [-write-timeout 30s]
//	         [-debug-addr host:port] [-drain-timeout 10s]
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, admitted
// requests finish (bounded by -drain-timeout), then the process exits.
// With -debug-addr set, an HTTP endpoint serves the server's counters at
// /debug/vars (the "mfserve" object, keyed like server.Snapshot's JSON)
// and net/http/pprof profiles at /debug/pprof/.
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
	"syscall"
	"time"

	"multifloats/internal/blas"
	"multifloats/serve/server"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7333", "TCP listen address")
		debugAddr    = flag.String("debug-addr", "", "HTTP listen address for expvar + pprof (empty = disabled)")
		batchWindow  = flag.Duration("batch-window", 200*time.Microsecond, "max time a scalar request waits for batch-mates (negative = no coalescing)")
		maxBatch     = flag.Int("max-batch", 256, "flush threshold in requests per (op,width) lane")
		queueDepth   = flag.Int("queue", 4096, "per-lane pending-queue bound (beyond it: reject with retry-after)")
		workers      = flag.Int("workers", 0, "kernel worker parallelism (0 = GOMAXPROCS)")
		maxDim       = flag.Int("max-dim", 1<<20, "max expansion elements per request slab")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "close a connection that takes longer than this to deliver its next frame (negative = never)")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "bound on each write+flush of a connection's queued responses; a peer that stops reading is cut off after 0.75-1x of it (negative = never)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	s := server.New(server.Config{
		Addr:         *addr,
		BatchWindow:  *batchWindow,
		MaxBatch:     *maxBatch,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		MaxDim:       *maxDim,
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
	})
	if err := s.Listen(); err != nil {
		log.Fatalf("mfserved: %v", err)
	}
	log.Printf("mfserved: listening on %s (batch-window=%v max-batch=%d queue=%d workers=%d)",
		s.Addr(), *batchWindow, *maxBatch, *queueDepth, *workers)

	if *debugAddr != "" {
		// expvar's init registers /debug/vars on the default mux; the pprof
		// import registers /debug/pprof/*. One listener serves both.
		expvar.Publish("mfserve", expvar.Func(func() any { return s.Stats().Snapshot() }))
		go func() {
			log.Printf("mfserved: debug HTTP on http://%s/debug/vars and /debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("mfserved: debug HTTP: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- s.Serve() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("mfserved: %v — draining (budget %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := s.Shutdown(ctx)
		cancel()
		if serveErr := <-errc; serveErr != nil {
			log.Printf("mfserved: serve: %v", serveErr)
		}
		blas.ClosePool()
		if err != nil {
			log.Fatalf("mfserved: drain incomplete: %v", err)
		}
		snap := s.Stats().Snapshot()
		fmt.Printf("mfserved: drained cleanly — %d requests, %d batches (%d reqs coalesced), %d overloads, %d deadline misses\n",
			snap.Requests, snap.Batches, snap.BatchedReqs, snap.Overloads, snap.DeadlineMisses)
	case err := <-errc:
		blas.ClosePool()
		if err != nil {
			log.Fatalf("mfserved: %v", err)
		}
	}
}
