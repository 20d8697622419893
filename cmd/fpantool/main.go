// Command fpantool inspects, verifies, and searches for floating-point
// accumulation networks.
//
// Usage:
//
//	fpantool diagram [-n add2]     # print a network in the paper's notation (Figs. 2–7)
//	fpantool verify [-n add3] [-cases N] [-strict]
//	                               # adversarial verification (paper §3 substitute)
//	fpantool search [-n 2] [-op add|mul] [-iters N] [-seed S] [-maxgates G] [-commutative=BOOL]
//	                               # simulated-annealing FPAN discovery (paper §4.1); prints
//	                               # the winner's diagram and its gate list as Go
//	fpantool enumerate [-cases N]  # 2-term optimality evidence (E-Opt2)
//	fpantool fig1                  # expansion decomposition illustration (Fig. 1)
package main

import (
	"flag"
	"fmt"
	"math/big"
	"os"
	"strings"

	"multifloats/internal/anneal"
	"multifloats/internal/core"
	"multifloats/internal/fpan"
	"multifloats/internal/verify"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "diagram":
		fs := flag.NewFlagSet("diagram", flag.ExitOnError)
		name := fs.String("n", "", "network name (add2..add4, mul2..mul4); empty = all")
		fs.Parse(args)
		names := []string{"add2", "add3", "add4", "mul2", "mul3", "mul4"}
		if *name != "" {
			names = []string{*name}
		}
		for _, n := range names {
			net := fpan.ByName(n)
			if net == nil {
				fmt.Fprintf(os.Stderr, "unknown network %q\n", n)
				os.Exit(2)
			}
			fmt.Println(fpan.Diagram(net))
		}
	case "verify":
		fs := flag.NewFlagSet("verify", flag.ExitOnError)
		name := fs.String("n", "add2", "network name")
		cases := fs.Int("cases", 200000, "adversarial cases")
		seed := fs.Int64("seed", 1, "generator seed")
		strict := fs.Bool("strict", false, "use the paper's strict input invariant")
		fs.Parse(args)
		net := fpan.ByName(*name)
		if net == nil {
			fmt.Fprintf(os.Stderr, "unknown network %q\n", *name)
			os.Exit(2)
		}
		gen := verify.NewExpansionGen(*seed)
		gen.Strict = *strict
		var rep *verify.Report
		if strings.HasPrefix(*name, "mul") {
			gen.MaxLeadExp = 100
			rep = verify.VerifyMulWith(gen, net, int(net.Name[3]-'0'), *cases)
		} else {
			rep = verify.VerifyAddWith(gen, net, int(net.Name[3]-'0'), *cases)
		}
		fmt.Println(net)
		fmt.Println(rep)
		if rep.Failed() {
			os.Exit(1)
		}
	case "search":
		fs := flag.NewFlagSet("search", flag.ExitOnError)
		n := fs.Int("n", 2, "expansion terms")
		op := fs.String("op", "add", "operation: add or mul")
		iters := fs.Int("iters", 4000, "annealing iterations")
		seed := fs.Int64("seed", 1, "search seed")
		maxGates := fs.Int("maxgates", 0, "gate budget (0 = default)")
		comm := fs.Bool("commutative", true, "require commutativity for mul networks (§4.2)")
		fs.Parse(args)
		commSet := false
		fs.Visit(func(f *flag.Flag) { commSet = commSet || f.Name == "commutative" })
		if err := checkSearchFlags(*op, *n, commSet); err != nil {
			fmt.Fprintln(os.Stderr, "fpantool search:", err)
			fs.PrintDefaults()
			os.Exit(2)
		}
		cfg := anneal.DefaultConfig()
		cfg.Iters = *iters
		cfg.Seed = *seed
		cfg.RequireCommutative = *comm
		if *maxGates > 0 {
			cfg.MaxGates = *maxGates
		}
		var res *anneal.Result
		if *op == "mul" {
			res = anneal.SearchMul(*n, cfg, os.Stdout)
		} else {
			res = anneal.SearchAdd(*n, cfg, os.Stdout)
		}
		if res.Best == nil {
			fmt.Println("search: no verified network found")
			os.Exit(1)
		}
		fmt.Printf("\nbest verified network: %s\n", res.Best)
		fmt.Println(fpan.Diagram(res.Best))
		printLiteral(res.Best)
	case "enumerate":
		fs := flag.NewFlagSet("enumerate", flag.ExitOnError)
		cases := fs.Int("cases", 20000, "verification cases per candidate")
		fs.Parse(args)
		anneal.Enumerate2(os.Stdout, *cases)
	case "fig1":
		fig1()
	default:
		usage()
	}
}

// printLiteral prints the network's size, depth, outputs and gates as
// the fields of a Go fpan.Network literal, ready to paste into
// internal/fpan/discovered.go.
func printLiteral(net *fpan.Network) {
	kinds := map[fpan.GateKind]string{fpan.Add: "Add", fpan.Sum: "Sum", fpan.FastSum: "FastSum"}
	fmt.Printf("// size %d, depth %d\n", net.Size(), net.Depth())
	fmt.Printf("Outputs: %#v,\n", net.Outputs)
	fmt.Println("Gates: []Gate{")
	for _, g := range net.Gates {
		fmt.Printf("\t{%s, %d, %d},\n", kinds[g.Kind], g.A, g.B)
	}
	fmt.Println("},")
}

func fig1() {
	// Figure 1: decomposition of a high-precision constant into a
	// nonoverlapping expansion, shown at full double precision.
	c := new(big.Float).SetPrec(300)
	c.SetString("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899")
	fmt.Println("Decomposition of π into nonoverlapping expansions (paper Figure 1):")
	for n := 2; n <= 4; n++ {
		terms := core.FromBig(c, n)
		fmt.Printf("\n%d-term expansion:\n", n)
		sum := new(big.Float).SetPrec(300)
		for i, t := range terms {
			fmt.Printf("  x%d = %+.17e\n", i, t)
			sum.Add(sum, new(big.Float).SetFloat64(t))
		}
		diff := new(big.Float).SetPrec(300).Sub(c, sum)
		f, _ := diff.Float64()
		fmt.Printf("  residual C - Σx = %.3e  (bound 2^-(%d·53+%d) ≈ %.1e, Eq. 7)\n",
			f, n, n-1, pow2(-(n*53 + n - 1)))
	}
}

func pow2(k int) float64 {
	out := 1.0
	for ; k < 0; k++ {
		out /= 2
	}
	return out
}

// checkSearchFlags rejects the search flag combinations the annealer
// cannot run: an -op other than add or mul, -n outside 2..4, and
// -commutative given for an add search, which has no such gate.
func checkSearchFlags(op string, n int, commSet bool) error {
	switch {
	case op != "add" && op != "mul":
		return fmt.Errorf("-op %q: want add or mul", op)
	case n < 2 || n > 4:
		return fmt.Errorf("-n %d: want 2, 3 or 4", n)
	case commSet && op == "add":
		return fmt.Errorf("-commutative applies only to -op mul")
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fpantool {diagram|verify|search|enumerate|fig1} [flags]")
	os.Exit(2)
}
