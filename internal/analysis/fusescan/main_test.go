package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestScanFlagsUnwantedFusion feeds a synthetic -S listing over a fixture
// source: the fusion on the plain addition is reported with its function,
// the ones at an FMA call and on a //mf:allow fpcontract line are not,
// and lines from files outside the root (the standard library) and
// non-fused instructions are ignored.
func TestScanFlagsUnwantedFusion(t *testing.T) {
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(root, "kernel.go")
	listing := strings.Join([]string{
		"kernel.f STEXT size=64 args=0x18 locals=0x0 funcid=0x0 align=0x0",
		"\t0x0000 00000 (" + src + ":4)\tFMULD\tF1, F0, F3",
		"\t0x0004 00004 (" + src + ":5)\tFMADDD\tF1, F2, F0, F4",
		"\t0x0008 00008 (" + src + ":5)\tFMSUBD\tF1, F2, F0, F5",
		"\t0x000c 00012 (" + src + ":6)\tFMSUBD\tF1, F0, F3, F6",
		"\t0x0010 00016 (" + src + ":7)\tFMADDD\tF7, F8, F9, F10",
		"\t0x0014 00020 (/usr/lib/go/src/math/abs.go:13)\tFMADDD\tF1, F2, F3, F4",
	}, "\n")
	sites, err := scan(strings.NewReader(listing), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 3 {
		t.Fatalf("scan found %d sites, want 3 (lines 5, 6, 7): %v", len(sites), sites)
	}
	bad, err := unwanted(sites, root)
	if err != nil {
		t.Fatal(err)
	}
	want := "kernel.go:5: 1 FMADDD, 1 FMSUBD in kernel.f: s := p + z"
	if len(bad) != 1 || bad[0] != want {
		t.Fatalf("unwanted = %q, want [%q]", bad, want)
	}
}
