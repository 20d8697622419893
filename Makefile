# Developer entry points. The repo is pure Go with no dependencies
# beyond the toolchain; everything below is a thin wrapper over go(1).

GO ?= go

.PHONY: check test race vet build crossbuild lint mflint gensync prove prove-smoke fuzz-smoke conformance conformance-math bench-smoke bench-ablation fig9 serve-smoke perf-smoke bench-serve bench-proxy proxy-smoke chaos chaos-smoke ledger-check ledger-pairs

# check is the full pre-merge gate: build (natively and for a big-endian
# target), static analysis (vet + the domain-aware mflint contract
# checks), generated-code drift, the proof cache gate, tests, the race
# detector over the worker pool and blocked kernels, and the mfledger
# benchmark module's own vet + tests.
check: build crossbuild lint gensync prove-smoke test race ledger-check

build:
	$(GO) build ./...

# crossbuild builds for two targets the amd64 tests cannot see. Works
# offline.
#   - s390x, big-endian: vets the serve stack, since serve/wire selects
#     its copying codec path there at build time (endian_big.go).
#   - arm64, a target that fuses x*y + z across statements: fusescan
#     compiles the kernel packages with -S and fails on any fused
#     multiply-add whose source line neither calls an FMA nor carries
#     //mf:allow fpcontract (DESIGN.md "Machine-checked contracts").
crossbuild:
	GOARCH=s390x $(GO) vet ./serve/...
	$(GO) run ./internal/analysis/fusescan

vet:
	$(GO) vet ./...

# lint is the required static-analysis gate: go vet plus mflint, the
# in-tree analyzer suite that machine-checks the paper's contracts
# (//mf:branchfree control flow, FMA-contraction hazards, constant
# exactness, //mf:hotpath allocation sites, //mf:fpan gate-network
# lifting — see DESIGN.md
# "Machine-checked contracts"). staticcheck and govulncheck run too when
# installed, but are not fetched: the build must work offline.
lint: vet mflint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck $$(staticcheck -version 2>/dev/null | head -1)"; \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI pins and runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (CI pins and runs it)"; \
	fi

mflint:
	$(GO) run ./cmd/mflint

# gensync fails when a committed derived file drifts from its generator:
# the internal/blas generated kernels (micro_generated.go,
# lanes_generated.go) are regenerated into scratch files and diffed, and
# PROOFS.json is checked by mfprove's smoke mode, which rebuilds the
# canonical proof-cache bytes from the lifted kernels (reusing valid
# cached verifications, so no exhaustive re-run) and fails on any
# difference. Regenerate for real with:
#   go run ./internal/blas/genmicro -out internal/blas/micro_generated.go \
#     -lanes-out internal/blas/lanes_generated.go
#   make prove
gensync:
	@tmp=$$(mktemp /tmp/micro_generated.XXXXXX.go); \
	ltmp=$$(mktemp /tmp/lanes_generated.XXXXXX.go); \
	trap 'rm -f "$$tmp" "$$ltmp"' EXIT; \
	$(GO) run ./internal/blas/genmicro -out "$$tmp" -lanes-out "$$ltmp" || exit 1; \
	ok=1; \
	if ! diff -u internal/blas/micro_generated.go "$$tmp"; then \
		echo "gensync: internal/blas/micro_generated.go is out of sync with genmicro"; ok=0; \
	fi; \
	if ! diff -u internal/blas/lanes_generated.go "$$ltmp"; then \
		echo "gensync: internal/blas/lanes_generated.go is out of sync with genmicro"; ok=0; \
	fi; \
	if ! $(GO) run ./cmd/mfprove; then \
		echo "gensync: PROOFS.json is out of sync with the //mf:fpan kernels; run 'make prove'"; ok=0; \
	fi; \
	if [ $$ok -eq 0 ]; then \
		echo "gensync: run 'go run ./internal/blas/genmicro -out internal/blas/micro_generated.go -lanes-out internal/blas/lanes_generated.go' and/or 'make prove'"; \
		exit 1; \
	fi; \
	echo "gensync: generated kernels and PROOFS.json are in sync"

# prove-smoke is the CI-sized proof gate: lift every //mf:fpan kernel,
# structurally check it against its spec's reference network, and demand
# a valid committed proof in PROOFS.json for every (spec, network hash)
# obligation — a silently reordered gate changes the hash and fails here
# with the lifter's instruction-level diff, at lint cost. Runs in make check.
prove-smoke:
	$(GO) run ./cmd/mfprove

# prove re-runs the exhaustive reduced-precision verification of every
# obligation from scratch (~40 s) and rewrites PROOFS.json. Run after
# any kernel or proof-spec change; commit the updated cache with it.
prove:
	$(GO) run ./cmd/mfprove -w -full

test:
	$(GO) test ./...

# race exercises the persistent worker pool, panel recycling, and the
# parallel blocked/tiled paths under the race detector, plus the public
# API package, the exact-reduction accumulator (whose server folds shard
# across the worker pool), and the mfserve stack (wire framing, the
# shared daemon skeleton, batching server incl. the e2e loopback parity
# tests, proxy, pooled client).
race:
	$(GO) test -race ./internal/blas/ ./internal/exact/ ./mf/ ./serve/...

# ledger-check vets and tests the mfledger benchmark against this
# checkout's serve/ packages (~25 s). mfledger is its own Go module
# (replace multifloats => ../), so the root `go build ./...` and
# `go test ./...` never compile it: without this gate a serve/ API break
# would pass and only surface when the benchmark is built.
ledger-check:
	cd mfledger && $(GO) vet ./... && $(GO) test ./...

# ledger-pairs compares the working tree with the tree at BASE on one
# mfledger workload: PAIRS pairs of `mfledger/run.sh --trace 0` runs at
# mfledger's default 20 s, one per side, with the side that runs first
# alternating from pair to pair. It then prints, for each end-to-end
# metric, each side's median and quartiles and how many pairs the
# working tree won (the better direction comes from BENCHMARK.json),
# plus failed operations per side.
# Both sides run from an export made with git archive, so that they
# differ only in their sources: BASE into .bench_build/base, and the
# working tree, with its uncommitted edits and untracked files (what
# `git add -A` would stage, staged through a scratch index), into
# .bench_build/work. The reports are kept in
# .bench_build/pairs/<workload>/{base,work}.<pair>.json.
#   make ledger-pairs BASE=HEAD~1 WORKLOAD=proxy-relay PAIRS=10 SEED=7
BASE ?= HEAD
WORKLOAD ?= proxy-relay
PAIRS ?= 10
SEED ?= 1
ledger-pairs:
	@set -e; \
	out=.bench_build/pairs/$(WORKLOAD); idx=.bench_build/work.index; \
	rm -rf .bench_build/base .bench_build/work "$$out"; mkdir -p .bench_build/base .bench_build/work "$$out"; \
	git archive "$(BASE)" | tar -x -C .bench_build/base; \
	cp "$$(git rev-parse --git-path index)" "$$idx"; \
	GIT_INDEX_FILE="$$idx" git add -A; tree=$$(GIT_INDEX_FILE="$$idx" git write-tree); rm -f "$$idx"; \
	git archive "$$tree" | tar -x -C .bench_build/work; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base work"; else order="work base"; fi; \
		for side in $$order; do \
			echo "ledger-pairs: pair $$i/$(PAIRS): $$side"; \
			(cd .bench_build/$$side && bash mfledger/run.sh --workload $(WORKLOAD) --seed $(SEED) --trace 0) \
				| tail -n 1 > "$$out/$$side.$$i.json"; \
			grep -q '"metrics"' "$$out/$$side.$$i.json" || { echo "ledger-pairs: $$side run $$i wrote no report"; exit 1; }; \
		done; \
	done; \
	for f in "$$out"/*.json; do \
		tag=$$(basename "$$f" .json | tr . ' '); \
		grep -o '"failed":[0-9]*' "$$f" | sed "s/\"failed\":/$$tag failed /"; \
		grep -o '"[a-z0-9_.]*":{"value":[^,}]*' "$$f" | sed "s/^\"\([^\"]*\)\":{\"value\":/$$tag \1 /"; \
	done | awk -v pairs=$(PAIRS) -v base="$(BASE)" ' \
		function q(a, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo]) } \
		function stats(side, m,   a, n, i, j, t) { \
			n = 0; for (i = 1; i <= pairs; i++) if ((side, i, m) in v) a[++n] = v[side, i, m]; \
			for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t } \
			med[side] = q(a, n, 0.5); return sprintf("%12.6g [%.6g, %.6g]", med[side], q(a, n, 0.25), q(a, n, 0.75)) } \
		FNR == NR { if ($$1 == "\"name\":") { gsub(/[",]/, "", $$2); name = $$2 } \
			if ($$1 == "\"better\":") { gsub(/[",]/, "", $$2); better[name] = $$2; order[++k] = name }; next } \
		$$3 == "failed" { failed[$$1] += $$4; next } \
		{ v[$$1, $$2, $$3] = $$4 } \
		END { printf "%-16s %-40s %-40s %8s  %s\n", "metric", "base " base ": median [q1, q3]", "work: median [q1, q3]", "change", "work wins"; \
			for (i = 1; i <= k; i++) { m = order[i]; if (!(("base", 1, m) in v)) continue; \
				b = stats("base", m); w = stats("work", m); wins = 0; \
				for (p = 1; p <= pairs; p++) if ((better[m] == "higher") == (v["work", p, m] > v["base", p, m]) && v["work", p, m] != v["base", p, m]) wins++; \
				printf "%-16s %-40s %-40s %+7.1f%%  %d/%d\n", m, b, w, 100 * (med["work"] / med["base"] - 1), wins, pairs } \
			printf "failed operations: base %d, work %d\n", failed["base"], failed["work"] }' BENCHMARK.json -

# fuzz-smoke gives each native fuzz target a short budget (the go fuzzer
# accepts one target per invocation). CI runs this on every push; longer
# local runs: go test ./mf -run '^$$' -fuzz '^FuzzDiv$$' -fuzztime 10m
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzAdd$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzMul$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzDiv$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzSqrt$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzEncode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzExp$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzLogExpRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzSinCos$$' -fuzztime $(FUZZTIME)
	$(GO) test ./mf -run '^$$' -fuzz '^FuzzPow$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzMulAcc$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/blas -run '^$$' -fuzz '^FuzzGemm$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exact -run '^$$' -fuzz '^FuzzSumVsOracle$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exact -run '^$$' -fuzz '^FuzzDecodeFloats$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/exact -run '^$$' -fuzz '^FuzzDotSlab$$' -fuzztime $(FUZZTIME)
	$(GO) test ./serve/wire -run '^$$' -fuzz '^FuzzReadRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./serve/wire -run '^$$' -fuzz '^FuzzReadResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./serve/proxy -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime $(FUZZTIME)

# conformance runs conformance-math, then a short differential campaign
# against the exact oracles (the registry includes the sumexact/dotexact
# zero-ulp entries and the elementary-function tier — every
# transcendental op at every width against the big.Float refmath
# oracle), then the superaccumulator's order-invariance tier; nonzero
# exit on any error-bound violation (TESTING.md).
conformance: conformance-math
	$(GO) run ./cmd/mffuzz -n 400 -blas 5
	$(GO) test -count=1 ./internal/exact/

# conformance-math reruns every elementary-function op (exp_2 …
# hypot_4) with 1000 cases at seeds 7 and 42, the other two seeds the
# TESTING.md floors were measured at (conformance's all-ops pass runs
# seed 1).
MATH_FNS := exp expm1 exp2 log log1p log2 log10 pow sin cos tan asin acos atan atan2 sinh cosh tanh cbrt hypot
comma := ,
MATH_OPS := $(subst $() $(),$(comma),$(foreach f,$(MATH_FNS),$(f)_2 $(f)_3 $(f)_4))
conformance-math:
	$(GO) run ./cmd/mffuzz -n 1000 -seed 7 -ops $(MATH_OPS)
	$(GO) run ./cmd/mffuzz -n 1000 -seed 42 -ops $(MATH_OPS)

# bench-smoke is a fast sanity pass over the scalar-kernel benchmarks.
bench-smoke:
	$(GO) test -run '^$$' -bench BenchmarkFig2to7 -benchtime 10x .

# bench-ablation reproduces the blocked-vs-naive GEMM comparison of
# EXPERIMENTS.md §E-Blocking.
bench-ablation:
	$(GO) test -run '^$$' -bench BenchmarkAblationBlockedGemm -benchtime 2x .

# fig9 regenerates the paper's Figure 9 table and BENCH_fig9.json.
fig9:
	$(GO) run ./cmd/mfbench -fig 9 -json

# The smoke targets build their daemons and load generator into the
# checkout's (gitignored) .bench_build/bin, so two checkouts, or two
# targets, never overwrite each other's binaries, and nothing outside
# the checkout needs to be writable.
BIN := .bench_build/bin

# serve-smoke is the CI gate for the mfserve stack: build the daemon and
# load generator, run the daemon, drive 15s of mixed scalar traffic with
# per-request deadlines, and fail on any protocol error or deadline miss.
serve-smoke:
	$(GO) build -o $(BIN)/mfserved ./cmd/mfserved
	$(GO) build -o $(BIN)/mfload ./cmd/mfload
	$(BIN)/mfserved -addr 127.0.0.1:7333 & \
	SERVED=$$!; \
	sleep 1; \
	$(BIN)/mfload -addr 127.0.0.1:7333 -duration 15s -mix scalar -deadline 2s -gate; \
	RC=$$?; \
	kill -TERM $$SERVED; wait $$SERVED; \
	exit $$RC

# perf-smoke is the CI throughput tripwire for the SoA batch path: drive
# the same pipelined single-op load as bench-serve's batched leg against
# a locally started daemon and gate on correctness (zero protocol errors
# or deadline misses) plus a deliberately loose throughput floor. The
# floor (50k req/s vs ~900k measured on the 1-core dev container —
# EXPERIMENTS.md §E-SoA) only trips on order-of-magnitude regressions:
# a serialized batch path, a per-request allocation storm, a broken
# batching config — not on runner noise.
# The math leg's floor is far lower still: its mix includes tan on
# 1e18..1e20 arguments, which prices the full Payne–Hanek reduction on
# every element (TESTING.md "Elementary functions").
PERF_SMOKE_MIN_RPS ?= 50000
REDUCE_SMOKE_MIN_RPS ?= 20000
MATH_SMOKE_MIN_RPS ?= 2000
perf-smoke:
	$(GO) build -o $(BIN)/mfserved ./cmd/mfserved
	$(GO) build -o $(BIN)/mfload ./cmd/mfload
	$(BIN)/mfserved -addr 127.0.0.1:7334 & \
	SERVED=$$!; \
	sleep 1; \
	$(BIN)/mfload -addr 127.0.0.1:7334 -duration 10s -conns 2 -pipeline 256 \
		-count 1 -op mul -width 2 -deadline 2s -gate -min-rps $(PERF_SMOKE_MIN_RPS); \
	RC=$$?; \
	if [ $$RC -eq 0 ]; then \
		$(BIN)/mfload -addr 127.0.0.1:7334 -duration 10s -conns 2 -pipeline 256 \
			-count 64 -mix reduce -deadline 2s -gate -min-rps $(REDUCE_SMOKE_MIN_RPS); \
		RC=$$?; \
	fi; \
	if [ $$RC -eq 0 ]; then \
		$(BIN)/mfload -addr 127.0.0.1:7334 -duration 10s -conns 2 -pipeline 256 \
			-count 8 -mix math -deadline 5s -gate -min-rps $(MATH_SMOKE_MIN_RPS); \
		RC=$$?; \
	fi; \
	kill -TERM $$SERVED; wait $$SERVED; \
	exit $$RC

# chaos is the full fault-injection matrix (TESTING.md "Chaos & fault
# injection"): CHAOS_SEEDS seeded campaigns of the serve/chaostest
# invariant suite under the race detector. Each campaign is a
# deterministic (seed, fault profile) pair; reproduce one failing
# campaign with
#   go test ./serve/chaostest -race -run 'Campaigns/seed=<N>' -chaos.seeds $(CHAOS_SEEDS)
CHAOS_SEEDS ?= 25
chaos:
	$(GO) test -race -count=1 -timeout 20m ./serve/chaostest/ -chaos.seeds $(CHAOS_SEEDS) -v

# chaos-smoke is the CI-sized subset: 5 campaigns (profile rotation
# means each of the 5 fault profiles appears exactly once) plus the
# drain-under-fire and checksum-teeth tests, still under -race.
chaos-smoke:
	$(GO) test -race -count=1 -timeout 5m ./serve/chaostest/ -chaos.seeds 5

# bench-serve reproduces EXPERIMENTS.md §E-Serve: identical load against
# a batching server and a one-request-per-batch server, writing
# BENCH_serve.json with the throughput ratio (acceptance floor: 2.5x —
# see the wire-v2 integrity-cost note in EXPERIMENTS.md §E-Serve).
bench-serve:
	$(GO) run ./cmd/mfload -compare -duration 5s -conns 2 -pipeline 256 \
		-count 1 -op mul -width 2 -out BENCH_serve.json

# bench-proxy measures the cluster tier and merges a "proxy" leg into
# BENCH_serve.json: direct single-backend vs proxy pass-through (cache
# off) vs proxy cache-hot, on the repeated-payload mix (acceptance
# floor: cache-hot >= 1.5x pass-through).
bench-proxy:
	$(GO) run ./cmd/mfload -proxy-compare -duration 5s -conns 2 -pipeline 256 \
		-count 1 -op mul -width 2 -out BENCH_serve.json

# proxy-smoke is the CI gate for mfproxy: two daemons plus the proxy,
# kill one backend mid-load with streaming reductions in flight, and
# gate on zero incorrect responses (protocol, checksum, or deadline
# failures; overloads are the designed shedding path and are allowed).
# The scalar leg runs with per-request deadlines; the reduction leg
# drives multi-shape exact reductions through the shard/merge path.
proxy-smoke:
	$(GO) build -o $(BIN)/mfserved ./cmd/mfserved
	$(GO) build -o $(BIN)/mfproxy ./cmd/mfproxy
	$(GO) build -o $(BIN)/mfload ./cmd/mfload
	$(BIN)/mfserved -addr 127.0.0.1:7341 & \
	S1=$$!; \
	$(BIN)/mfserved -addr 127.0.0.1:7342 & \
	S2=$$!; \
	sleep 1; \
	$(BIN)/mfproxy -addr 127.0.0.1:7340 -backends 127.0.0.1:7341,127.0.0.1:7342 \
		-fail-threshold 2 -probe-after 200ms -seed 1 & \
	PROXY=$$!; \
	sleep 1; \
	( sleep 5; kill -TERM $$S2; ) & \
	KILLER=$$!; \
	$(BIN)/mfload -addr 127.0.0.1:7340 -duration 12s -mix scalar -deadline 5s -gate; \
	RC=$$?; \
	if [ $$RC -eq 0 ]; then \
		$(BIN)/mfload -addr 127.0.0.1:7340 -duration 6s -count 64 -mix reduce -gate; \
		RC=$$?; \
	fi; \
	wait $$KILLER; \
	kill -TERM $$PROXY; wait $$PROXY; \
	kill -TERM $$S1; wait $$S1; \
	wait $$S2 2>/dev/null; \
	exit $$RC
