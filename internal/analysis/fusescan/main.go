// Command fusescan checks the kernel packages' arm64 machine code for
// fused multiply-adds that the source did not ask for.
//
// The Go spec lets an implementation fuse x*y + z "possibly across
// statements", and gc's arm64 backend does so wherever a product feeds
// an addition in SSA form (ARM64.rules: (FADDD a (FMULD x y)) =>
// FMADDD, with no single-use or statement condition), including through
// inlined calls. mflint's fpcontract analyzer sees a product only where
// it is written as a direct operand of + or -; a product bound to a
// variable, or returned by an inlined eft.TwoProd, reaches the fusing
// rule unseen. An explicit conversion T(x*y) is the spec's rounding
// barrier.
//
// fusescan cross-compiles analysis.KernelPkgs for arm64 with -S and
// fails on every FMADD/FMSUB/FNMADD/FNMSUB whose source line neither
// calls an FMA nor carries //mf:allow fpcontract. It needs no arm64
// host, works offline, and runs under make crossbuild.
//
// Usage, from the module root:
//
//	go run ./internal/analysis/fusescan
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"multifloats/internal/analysis"
)

// asmLine matches one -S instruction line carrying a fused multiply-add:
// "\t0x0040 00064 (/path/file.go:80)\tFMADDD\tF1, F2, F3, F4".
var asmLine = regexp.MustCompile(`\((\S+\.go):(\d+)\)\s+(FN?M(?:ADD|SUB)[DS])\s`)

// textLine matches the header of one function's listing.
var textLine = regexp.MustCompile(`^(\S+) STEXT`)

// wanted matches a source line whose fusion is asked for.
var wanted = regexp.MustCompile(`FMA(32|64)?\(|//mf:allow fpcontract`)

// site is one source line that compiled to fused instructions.
type site struct {
	file string
	line int
	fn   string // the first function whose listing showed it
	ops  map[string]int
}

// scan collects the fused instructions of a -S listing by source line,
// keeping only files under root.
func scan(r io.Reader, root string) (map[string]*site, error) {
	sites := make(map[string]*site)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fn := ""
	for sc.Scan() {
		if t := textLine.FindStringSubmatch(sc.Text()); t != nil {
			fn = t[1]
			continue
		}
		m := asmLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		if rel, err := filepath.Rel(root, m[1]); err != nil || strings.HasPrefix(rel, "..") {
			continue
		}
		key := m[1] + ":" + m[2]
		s := sites[key]
		if s == nil {
			n, _ := strconv.Atoi(m[2])
			s = &site{file: m[1], line: n, fn: fn, ops: make(map[string]int)}
			sites[key] = s
		}
		s.ops[m[3]]++
	}
	return sites, sc.Err()
}

// unwanted returns the sites whose source line neither calls an FMA nor
// carries //mf:allow fpcontract, formatted relative to root and sorted.
func unwanted(sites map[string]*site, root string) ([]string, error) {
	lines := make(map[string][]string)
	var out []string
	for _, s := range sites {
		src, ok := lines[s.file]
		if !ok {
			data, err := os.ReadFile(s.file)
			if err != nil {
				return nil, err
			}
			src = strings.Split(string(data), "\n")
			lines[s.file] = src
		}
		if s.line < 1 || s.line > len(src) {
			return nil, fmt.Errorf("%s:%d: no such source line", s.file, s.line)
		}
		text := src[s.line-1]
		if wanted.MatchString(text) {
			continue
		}
		var ops []string
		for op, n := range s.ops {
			ops = append(ops, fmt.Sprintf("%d %s", n, op))
		}
		sort.Strings(ops)
		rel, _ := filepath.Rel(root, s.file)
		out = append(out, fmt.Sprintf("%s:%d: %s in %s: %s", rel, s.line, strings.Join(ops, ", "), s.fn, strings.TrimSpace(text)))
	}
	sort.Strings(out)
	return out, nil
}

func main() {
	ld, err := analysis.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	args := []string{"build"}
	var pkgs []string
	for _, p := range analysis.KernelPkgs {
		args = append(args, "-gcflags="+ld.ModulePath()+"/"+p+"=-S")
		pkgs = append(pkgs, "./"+p)
	}
	cmd := exec.Command("go", append(args, pkgs...)...)
	cmd.Dir = ld.Root()
	cmd.Env = append(os.Environ(), "GOARCH=arm64")
	var listing bytes.Buffer
	cmd.Stdout, cmd.Stderr = &listing, &listing
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(listing.Bytes())
		fatal(fmt.Errorf("GOARCH=arm64 go build: %v", err))
	}
	sites, err := scan(&listing, ld.Root())
	if err != nil {
		fatal(err)
	}
	bad, err := unwanted(sites, ld.Root())
	if err != nil {
		fatal(err)
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		fmt.Printf("fusescan: %d source lines compile to fused multiply-adds on arm64 without calling an FMA; add a T(x*y) rounding barrier\n", len(bad))
		os.Exit(1)
	}
	fmt.Printf("fusescan: arm64 fuses only at FMA calls (%d source lines)\n", len(sites))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fusescan:", err)
	os.Exit(2)
}
