package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// checkMetrics fails unless got holds exactly the listed metrics, each
// with its listed unit.
func checkMetrics(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
	listed := map[string]bool{}
	for _, m := range want {
		listed[m.Name] = true
	}
	var extra []string
	for name := range got {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

// A short run of every workload is correct and emits every end-to-end
// metric with its unit.
func TestEndToEndMetrics(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := execute(options{workload: w.Name, seed: 7, seconds: 300 * time.Millisecond}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep.Metrics, spec.EndToEnd)
			for name, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
		})
	}
}

// The traced run of every workload reports exactly BENCHMARK.json's
// per-layer metrics.
func TestTracedMetricsMatchBenchmark(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := execute(options{workload: w.Name, seed: 7, seconds: time.Second, trace: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("traced run: attempted=%d failed=%d", rep.Attempted, rep.Failed)
			}
			checkMetrics(t, rep.Metrics, spec.PerLayer)
		})
	}
}

// One flipped bit in one expected result is reported as a failure, both
// on the pipelined frame path and on the streamed reduction path.
func TestFlippedBitIsAFailure(t *testing.T) {
	for _, w := range []string{"scalar-small", "reduce-stream"} {
		t.Run(w, func(t *testing.T) {
			rep, err := execute(options{workload: w, seed: 7, seconds: 200 * time.Millisecond, corrupt: true}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct || rep.Failed == 0 {
				t.Errorf("corrupted reference passed: correct=%v attempted=%d failed=%d",
					rep.Correct, rep.Attempted, rep.Failed)
			}
		})
	}
}

// The same seed generates the same inputs; another seed, others.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, err := buildInputs(w, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildInputs(w, 3, 2)
		c, _ := buildInputs(w, 4, 2)
		if !a.items[0].matches(b.items[0].want) || len(a.items) != len(b.items) {
			t.Errorf("%s: seed 3 generated different inputs twice", w)
		}
		if a.items[0].matches(c.items[0].want) {
			t.Errorf("%s: seeds 3 and 4 generated the same first request", w)
		}
	}
}
