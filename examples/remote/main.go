// Remote extended-precision compute over mfserve.
//
// A client offloads width-3 dot products and a batch of scalar
// multiplies to an mfserved instance. Results come back bit-exact: the
// wire format carries raw IEEE-754 component bit patterns, so the remote
// answer is indistinguishable from calling the local kernels.
//
// Run with:
//
//	go run ./examples/remote                      # self-contained (in-process server)
//	go run ./examples/remote -addr host:port      # against a running mfserved
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"multifloats/mf"
	"multifloats/serve/client"
	"multifloats/serve/server"
	"multifloats/serve/wire"
)

func main() {
	addr := flag.String("addr", "", "mfserved address (empty = start an in-process server)")
	flag.Parse()

	target := *addr
	if target == "" {
		s := server.New(server.Config{Addr: "127.0.0.1:0"})
		if err := s.Listen(); err != nil {
			log.Fatal(err)
		}
		go s.Serve()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		target = s.Addr().String()
		fmt.Printf("started in-process mfserve on %s\n", target)
	}

	c, err := client.Dial(target)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Calls take a context; its deadline becomes the request deadline the
	// server enforces (fail-fast if a batch would miss it).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	// An ill-conditioned dot product: large cancellation makes float64
	// collapse, width-3 expansions keep ~47 significant digits.
	rng := rand.New(rand.NewSource(7))
	n := 1000
	x := make([]mf.Float64x3, 2*n)
	y := make([]mf.Float64x3, 2*n)
	for i := 0; i < n; i++ {
		v, w := mf.New3(rng.Float64()), mf.New3(1e16*(rng.Float64()-0.5))
		x[2*i], y[2*i] = v, w
		x[2*i+1], y[2*i+1] = v.Neg(), w // pairwise cancellation
	}
	dot, err := client.Dot(ctx, c, x, y)
	if err != nil {
		log.Fatal(err)
	}
	local := x[0].Mul(y[0])
	for i := 1; i < len(x); i++ {
		local = local.Add(x[i].Mul(y[i]))
	}
	fmt.Printf("remote dot: %v\nlocal  dot: %v (bit-exact match: %v)\n",
		dot.Float(), local.Float(), dot == local)

	// Scalar batch: concurrent single-value calls coalesce server-side
	// into one vectorized kernel pass per batch window.
	a, b := mf.New2(1.0).Div(mf.New2(3.0)), mf.New2(3.0)
	prod, err := client.Scalar(ctx, c, wire.OpMul, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(1/3)·3 at width 2: %v (err vs 1: %g)\n", prod.Float(), prod.Sub(mf.New2(1.0)).Float())
}
