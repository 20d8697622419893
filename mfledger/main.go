// Command mfledger is the repository's benchmark: one named, seeded
// workload driven through in-process serve/server and serve/proxy
// instances over loopback TCP, with every result checked bit for bit
// against a local reference.
//
//	bash mfledger/run.sh --workload scalar-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics: saturated closed-loop
// throughput and CPU per request (nproc connections, fixed pipeline
// depth), round-trip percentiles of one synchronous caller, peak memory,
// and set-up time (the median of five complete set-ups). With --trace 1
// it replays the same seeded inputs through each layer's public
// functions, bottom-up (mf, blas, exact, wire, an in-memory server,
// loopback TCP, serve/client, mfproxy), prints the per-request
// attribution table, and reports the per-layer metrics.
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics with their units. The command exits
// 1 when any result was wrong or missing, and 2 on a usage or set-up
// error. BENCHMARK.json at the repository root lists the workloads and
// metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	var opts options
	fs := flag.NewFlagSet("mfledger", flag.ContinueOnError)
	fs.StringVar(&opts.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&opts.seed, "seed", 1, "input generation seed")
	secs := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced per-layer replay instead of the end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	opts.seconds = time.Duration(*secs * float64(time.Second))
	opts.trace = *trace == 1
	if *trace != 0 && *trace != 1 || opts.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mfledger: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep, err := execute(opts, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mfledger: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mfledger: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// corrupt flips one bit of one expected result: a run with it set
	// must report failures, which is how the checker's own test proves
	// it compares the bits it claims to.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner is one invocation.
type runner struct {
	opts    options
	out     io.Writer
	workers int // server kernel parallelism
	conns   int // saturated-phase connections
	depth   int // requests outstanding per connection
	metrics map[string]metric
	rep     report
}

// execute runs one workload and returns its report.
func execute(opts options, out io.Writer) (*report, error) {
	r := &runner{
		opts:    opts,
		out:     out,
		workers: runtime.GOMAXPROCS(0),
		conns:   runtime.NumCPU(),
		metrics: map[string]metric{},
	}
	r.depth = pipelineDepth(opts.workload)
	r.printHost()
	var err error
	if opts.trace {
		err = r.traced()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	r.rep.Correct = r.rep.Failed == 0 && r.rep.Attempted > 0
	r.rep.Metrics = r.metrics
	return &r.rep, nil
}

// pipelineDepth is the requests each saturating connection keeps
// outstanding: deep for single-element frames so batches fill, shallow
// for slab requests that each carry milliseconds of kernel work, and one
// stream at a time for reductions (serve/client keeps its own window of
// chunks in flight).
func pipelineDepth(workload string) int {
	switch workload {
	case "slab-kernels":
		return 4
	case "reduce-stream":
		return 1
	}
	return 64
}

func (r *runner) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{v, unit}
}

// phase runs one phase and adds its outcomes to the run's totals.
func (r *runner) phase(name string, tgt target, in *inputs, spec phaseSpec) *phaseOut {
	p := runPhase(tgt, in, spec)
	r.rep.Attempted += p.attempted
	r.rep.Failed += p.failed
	for _, f := range p.failures {
		fmt.Fprintf(r.out, "FAIL %s: %s\n", name, f)
	}
	return p
}

// setupRepeats is how many complete set-ups an end-to-end run performs;
// setup_s is their median. rounds is how many saturated and synchronous
// phase pairs the measured seconds are split into.
const (
	setupRepeats = 5
	rounds       = 10
)

// setup generates the inputs and their references, starts the servers
// the workload needs, and warms them with one pass over the inputs.
func (r *runner) setup(withLayers bool) (*inputs, *stack, target, error) {
	in, err := buildInputs(r.opts.workload, r.opts.seed, r.workers)
	if err != nil {
		return nil, nil, target{}, err
	}
	if r.opts.corrupt {
		in.items[0].want[0] = math.Float64frombits(math.Float64bits(in.items[0].want[0]) ^ 1)
	}
	st := &stack{}
	fail := func(err error) (*inputs, *stack, target, error) {
		return nil, nil, target{}, errors.Join(err, st.close())
	}
	backends := 1
	if withLayers || r.opts.workload == "proxy-relay" {
		backends = 2
	}
	if err := st.addBackends(backends, r.workers); err != nil {
		return fail(err)
	}
	tgt := st.direct()
	if backends == 2 {
		if err := st.addProxy(r.opts.seed); err != nil {
			return fail(err)
		}
		if r.opts.workload == "proxy-relay" {
			tgt = st.viaProxy()
		}
	}
	if withLayers {
		st.addPipe(r.workers)
		cfg := serverConfig(r.workers)
		cfg.BatchWindow = -1
		if st.nowindow, err = st.addServer(cfg); err != nil {
			return fail(err)
		}
	}
	warm := int64(len(in.items))
	if in.fresh != nil {
		warm = 8192 // fills the proxy's result cache with fresh requests
	}
	r.phase("warm-up", tgt, in, phaseSpec{curs: in.cursors(r.opts.seed, 0, r.conns), depth: r.depth, limit: warm})
	return in, st, tgt, nil
}

// endToEnd measures the BENCHMARK.json end-to-end metrics.
func (r *runner) endToEnd() error {
	var setups []float64
	var in *inputs
	var st *stack
	var tgt target
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if in, st, tgt, err = r.setup(false); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()

	// Saturated and synchronous phases alternate. Throughput and CPU are
	// the medians over the rounds, so a burst of outside load on the host
	// moves at most a minority of the samples; the round-trip percentiles
	// pool every synchronous sample, so they average over the garbage
	// collector's cycles instead of depending on whether one fell in a
	// short phase.
	var tput, cpu []float64
	var rtts []time.Duration
	satCurs, latCurs := in.cursors(r.opts.seed, 1, r.conns), in.cursors(r.opts.seed, 2, 1)
	for i := 0; i < rounds; i++ {
		sat := r.phase("saturated", tgt, in, phaseSpec{curs: satCurs, depth: r.depth,
			dur: r.opts.seconds * 6 / 10 / rounds})
		lat := r.phase("synchronous", tgt, in, phaseSpec{curs: latCurs, depth: 1,
			dur: r.opts.seconds * 4 / 10 / rounds, rtt: true})
		tput = append(tput, sat.rps())
		cpu = append(cpu, sat.cpuUSPerReq())
		rtts = append(rtts, lat.rtts...)
	}
	r.set("throughput_rps", median(tput), "1/s")
	r.set("rtt_p50_us", us(quantile(rtts, 0.50)), "us")
	r.set("rtt_p90_us", us(quantile(rtts, 0.90)), "us")
	r.set("cpu_us_per_req", median(cpu), "us")
	r.set("mem_peak_mb", peakRSSMiB(), "MiB")
	r.set("setup_s", median(setups), "s")

	errRate := 0.0
	if r.rep.Attempted > 0 {
		errRate = float64(r.rep.Failed) / float64(r.rep.Attempted)
	}
	fmt.Fprintf(r.out, "workload %s seed %d: %d requests, %d failed, %d synchronous samples in %d rounds\n",
		r.opts.workload, r.opts.seed, r.rep.Attempted, r.rep.Failed, len(rtts), rounds)
	for _, name := range sortedKeys(r.metrics) {
		m := r.metrics[name]
		fmt.Fprintf(r.out, "%-16s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(r.out, "%-16s %14.6f ratio (failed/attempted: reported as the result's failed and attempted)\n", "error_rate", errRate)
	fmt.Fprintf(r.out, "rounds, sorted: throughput_rps %.4g, cpu_us_per_req %.4g\n", tput, cpu)
	// p99 is printed but not reported: on a shared host its run-to-run
	// spread is wider than any bound a regression gate can use.
	fmt.Fprintf(r.out, "synchronous rtt: p99 %.1f us, max %.1f us\n", us(quantile(rtts, 0.99)), us(quantile(rtts, 1)))
	return st.close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// printHost records the facts a result depends on.
func (r *runner) printHost() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	scfg := serverConfig(r.workers)
	pcfg := proxyConfig(nil, r.opts.seed)
	facts := map[string]any{
		"workload":   r.opts.workload,
		"seed":       r.opts.seed,
		"seconds":    r.opts.seconds.Seconds(),
		"trace":      r.opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"conns":      r.conns,
		"pipeline":   r.depth,
		"server": map[string]any{
			"batch_window": scfg.BatchWindow.String(), "max_batch": scfg.MaxBatch,
			"queue_depth": scfg.QueueDepth, "workers": scfg.Workers, "max_dim": scfg.MaxDim,
		},
		"proxy": map[string]any{
			"backends": 2, "cache_bytes": pcfg.CacheBytes, "max_inflight": pcfg.MaxInflight,
			"fail_threshold": pcfg.FailThreshold, "probe_after": pcfg.ProbeAfter.String(),
			"load_factor": pcfg.LoadFactor, "reduce_shards": pcfg.ReduceShards,
			"replay_budget": pcfg.ReplayBudget, "seed": pcfg.Seed,
		},
	}
	b, _ := json.Marshal(facts) // a map of plain values always marshals
	fmt.Fprintf(r.out, "host %s\n", b)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
