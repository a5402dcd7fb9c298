# Development entry points. `make build test` is the tier-1 gate;
# `make race` is the concurrency gate for the multithreaded local kernels
# and the pipelined SUMMA schedule; `make ci` chains everything CI runs on
# every push, the two deterministic gates (`make perfgate`, `make plan`) and
# the toy-size benchmark (`make bench-smoke`) included. The other targets are
# run by hand or by the nightly workflow (.github/workflows/nightly.yml).
# Every target is a one-liner over the standard Go toolchain — no extra
# tools required.

GO ?= go
FUZZTIME ?= 30s
GATE_TOL ?= 0.05

.PHONY: all build test deadcode race vet doc bench-kernels bench-engine profile-engine bench-smoke bench-obs trace cover fuzz perfgate baseline golden plan serve soak ci

# all: the tier-1 gate (build + test), the default target.
all: build test

# build: compile every package and command, then type-check the benchmark
# module (bench/ has its own go.mod, so `./...` never reaches it; vet writes no
# binary) — an API change that breaks bench/adapter.go fails here, not first
# in bench-smoke.
build:
	$(GO) build ./...
	$(GO) -C bench vet .

# test: the full unit/differential/metering test suite (tier 1 with build),
# the dead-export guard (`make deadcode`) included.
test:
	$(GO) test ./...

# deadcode: the dead-code guard alone. TestNoTestOnlyExports type-checks every
# non-test package of the repository (internal/, cmd/, examples/, the root
# package and the bench/ module) as one program with go/types — standard
# library only, offline, about 2 s — and fails on a package-level func, type,
# var, const or method under internal/, exported or not, that nothing but
# tests reaches. A method is matched by its receiver type, not its name, and
# counts as reached when its type implements an interface whose method is
# called; a type error fails the test. Delete such code or move it into a
# _test.go file; a deliberate test oracle or fixture builder goes on
# testOnlyAllowlist in deadcode_test.go with the test that needs it.
# `make test` runs it too.
deadcode:
	$(GO) test -run '^TestNoTestOnlyExports$$' .

# race: the packages that run goroutines (simulated ranks in mpi/core,
# worker threads in localmm, concurrent jobs in service, the deal's
# goroutines in spmat) or hold state goroutines share (spmat: a block's
# lazily built column index, reached by every rank the block was broadcast
# to) under the race detector, race workouts included — the multithreaded
# kernels, the Pipeline=true broadcast prefetch paths
# (TestPipelinedSUMMARace), the service concurrency workout (N clients racing
# the plan cache and the admission scheduler) and concurrent first lookups on
# one shared DCSC block are exercised here. The three packages that run ranks
# go twice, at -cpu 1 and -cpu 4: the compute gate deals out GOMAXPROCS
# cores, so one core is the strict-turns path and four is ranks computing
# side by side and taking idle cores for workers — on a two-core runner
# neither is what a bare `go test` would cover. So do spmat and distmat
# (about 25 s more than spmat once): SplitGrid deals its column ranges on
# min(ranges, GOMAXPROCS) goroutines, so -cpu 1 is the one-goroutine deal
# and -cpu 4 the goroutines sharing the grid, which distmat's Split tests
# and TestSplitGridSameOnEveryCoreCount drive. So does localmm (about 95 s
# more than once on two cores): lent kernel outputs and lent deals draw from
# and go back to spmat's one free list under one lock, which
# TestLoansAndDealsRace drives from both sides at once. core's tests
# all run with returned chunks poisoned (TestMain), so -cpu 1,4 also covers
# the poison differential (TestLentProductsNeverEscape: every schedule × grid
# × format × thread count against the run that lends nothing — stage
# products, Merge-Layer outputs on l > 1 grids, discarded batches, the kept
# batch outputs of a run no hook sees, B's batch pieces (given back a batch
# after their own, once every column peer has finished with them), and the
# stages' plans — all q of them on the staged schedule, the last stage's on
# a pipelined q > 1 grid — which Merge-Layer's fused merge holds until its
# last window and which are poisoned when released) both
# where every output is a single-range loan and, on four cores, where
# a call granted a second worker falls back to an owned output. The planner
# goes at -cpu 1,4 too: the daemon plans concurrent requests over the same
# resident operands, so nothing a cold plan does may write what it reads
# (service's panicking-plan test covers the plan cache around it). So do the
# applications (about 5 s under -race): the four whose hooks consume
# MultiplyDiscard batches (jaccard, matching, overlap, tricount) run with
# returned chunks poisoned, and a batch is borrowed for the hook call only,
# so a hook that read its piece after returning fails its reference
# comparison. So do service's tests: a returned product is streamed, or
# assembled in process, from pieces lent by the kernels, whose chunks go back
# once that reader is done, so a product read after they went back fails its
# byte comparison. The root package goes too (about 4 s of tests here), also
# poisoned, Cluster.Multiply assembling lent pieces: its facade
# tests and runnable examples pass hooks to Cluster.MultiplyBatched, which
# runs them concurrently, one goroutine per rank, so a hook that shares state
# across ranks without per-rank slots or a lock fails here.
race:
	$(GO) test -race .
	$(GO) test -race -cpu 1,4 ./internal/localmm ./internal/spmat ./internal/distmat ./internal/mpi ./internal/core ./internal/service ./internal/planner ./internal/apps/...

# vet: static analysis over every package.
vet:
	$(GO) vet ./...

# doc: documentation hygiene gate — every file must be gofmt-clean (a
# non-empty `gofmt -l` listing fails the target) and pass go vet, whose
# analyzers check doc-comment conventions alongside correctness. Run it
# after editing package comments or doc.go files.
doc:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# cover: the full test suite with per-package coverage, writing an HTML
# report to cover.html (open it in a browser to drill into files).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1
	$(GO) tool cover -html=cover.out -o cover.html

# fuzz: bounded fuzz passes over the untrusted-input parsers — the
# Matrix Market reader, the sparse wire-format deserializer, the dense
# panel wire-format deserializer (seed corpora in
# internal/spmat/testdata/fuzz plus in-code seeds for the historical
# header-overflow and row-out-of-range bugs), and the daemon's binary /load
# body under a 1 MB budget (in-code seeds: both wire encodings, truncations,
# and the 21-byte matrix whose CSC form is 16 GiB) — and one over the local
# kernels' accumulator: arbitrary (row, value bits) sequences through the
# plus-times insert of both regimes (the direct one takes no jump on
# hit-or-new), multiply, merge and symbolic count, against a map with the
# branch in it. The Go fuzzer takes one
# -fuzz pattern per invocation, hence one line per target. Override
# FUZZTIME for longer local runs, e.g. `make fuzz FUZZTIME=5m`; the
# default 30s bound per target is what `make ci` runs.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadMatrixMarket -fuzztime=$(FUZZTIME) ./internal/spmat
	$(GO) test -run='^$$' -fuzz=FuzzDeserializeMatrix -fuzztime=$(FUZZTIME) ./internal/spmat
	$(GO) test -run='^$$' -fuzz=FuzzDeserializeDense -fuzztime=$(FUZZTIME) ./internal/spmat
	$(GO) test -run='^$$' -fuzz=FuzzLoadBody -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz=FuzzAccumulatorInsert -fuzztime=$(FUZZTIME) ./internal/localmm

# perfgate: the performance-regression gate `make ci` runs on every push
# (about 2 s). Runs pinned fig-6/8 and sparse×dense (spmm) shapes, emits
# BENCH_pr3.json, and fails when any gated
# shape's modeled critical-path seconds exceed the checked-in baseline
# (BENCH_baseline.json) by more than GATE_TOL. The gated metrics are fully
# modeled (α–β comm + work units at a pinned rate), so the comparison is
# machine-independent and deterministic; `go test ./internal/experiments`
# holds the same numbers to the baseline exactly (TestGateMatchesBaseline).
perfgate:
	$(GO) run ./cmd/spgemm-bench -gate -json BENCH_pr3.json -baseline BENCH_baseline.json -tol $(GATE_TOL)

# baseline: regenerate the checked-in perf-gate baseline after an intentional
# performance change. Review the diff before committing it.
baseline:
	$(GO) run ./cmd/spgemm-bench -gate -json BENCH_baseline.json

# golden: regenerate the experiments' run records
# (internal/experiments/testdata/runs/<id>.golden: one line per multiply an
# experiment runs at tiny scale — its pins, the b it executed, its ranks'
# largest modeled peak, every step's bytes, messages and work units, and a
# staged run's modeled comm seconds)
# and rendered reports (testdata/reports/<id>.golden: each report with
# measured compute replaced by work units at the gate rate; fig3, pipeline
# and service with every number masked) after an intentional change to what
# an experiment runs or prints or what the engine meters. `make test` holds
# both exactly. Review the diff before committing it.
golden:
	$(GO) test ./internal/experiments -run TestAllExperimentsRunTiny -update

# serve: run the multiply-as-a-service daemon locally (see SERVICE.md for
# the API, `go run ./cmd/spgemmd -h` for the knobs). Ctrl-C stops it.
serve:
	$(GO) run ./cmd/spgemmd

# soak: the service soak — a spgemmd server under concurrent mixed traffic,
# asserting bit-identical outputs, zero probe work after warmup,
# deadlock-free admission and, once the in-process server has closed, the
# goroutine count back at its pre-soak value (within 2): the daemon keeps its
# built worlds, not their rank goroutines. The nightly workflow runs this; point it at a
# running daemon with `go run ./cmd/spgemm-bench -server URL` instead to
# soak over real HTTP.
soak:
	$(GO) run ./cmd/spgemm-bench -exp service -scale tiny

# plan: the planner-vs-oracle gate `make ci` runs on every push (about
# 4 s). The analytical autotuner plans each gate workload, an exhaustive sweep
# (l × b × format × sparse-comm × pipeline × k for sparse×sparse, the
# planner's own axes in its order; the algorithm axis —
# SUMMA vs the 1.5D schedules over c × b — for the sparse×dense
# tall-skinny shape) establishes the true optimum under the same
# deterministic modeled objective, and the target fails when any pick
# lands more than 10% above it. It prints each shape's pick, the oracle's
# best and the gap, so a pick that moves within the tolerance shows here.
plan:
	$(GO) run ./cmd/spgemm-bench -plangate -scale tiny

# bench-json: the awk program bench-kernels and bench-obs pipe `go test -bench`
# output through — one "name": ns/op entry per benchmark, under the runner's
# CPU, core count, GOMAXPROCS, Go version and OS, the most samples a cell
# took (one benchmark line each) and the command that regenerates the file,
# $(1). A cell run several times records its median (the mean of the middle
# two at an even count) in ns_per_op and the fastest and slowest samples in
# ns_per_op_min and ns_per_op_max, so a verdict read off the file can be held
# to the spread.
# A run that fails or panics (a test timeout included) prints no numbers
# and fails the target, which then leaves the checked-in file as it was.
bench-json = awk -v numcpu="$$(getconf _NPROCESSORS_ONLN)" -v gover="$$($(GO) env GOVERSION)" -v regen="$(1)" \
	  'BEGIN{n=0; procs=1; most=0} /^cpu:/{cpu=$$0; sub(/^cpu: */,"",cpu)} /^goos:/{goos=$$2} /^(FAIL|panic)/{bad=1} \
	  /^Benchmark/{name=$$1; sub(/^Benchmark/,"",name); \
	    if (match(name,/-[0-9]+$$/)) {procs=substr(name,RSTART+1); name=substr(name,1,RSTART-1)} \
	    if (!(name in count)) {order[n++]=name; count[name]=0} \
	    c=count[name]; for (i=c; i>0 && sample[name,i-1]+0>$$3+0; i--) sample[name,i]=sample[name,i-1]; \
	    sample[name,i]=$$3; count[name]=c+1; if (c+1>most) most=c+1} \
	  function cells(key,  i,nm,c,v) { printf "  \"%s\": {\n", key; \
	    for (i=0; i<n; i++) {nm=order[i]; c=count[nm]; \
	      if (key=="ns_per_op_min") v=sample[nm,0]; else if (key=="ns_per_op_max") v=sample[nm,c-1]; \
	      else if (c%2) v=sample[nm,(c-1)/2]; else v=sprintf("%.10g",(sample[nm,c/2-1]+sample[nm,c/2])/2); \
	      printf "    \"%s\": %s%s\n", nm, v, (i<n-1?",":"")} \
	    printf "  }%s\n", (key=="ns_per_op_max"?"":",")} \
	  END{if (bad || n==0) exit 1; print "{"; printf "  \"cpu\": \"%s\",\n  \"num_cpu\": %s,\n  \"gomaxprocs\": %s,\n  \"go_version\": \"%s\",\n  \"goos\": \"%s\",\n  \"unit\": \"ns/op\",\n  \"samples_per_cell\": %s,\n  \"regenerate\": \"%s\",\n", cpu, numcpu, procs, gover, goos, most, regen; \
	  cells("ns_per_op"); cells("ns_per_op_min"); cells("ns_per_op_max"); print "}"}'

# bench-kernels: regenerate BENCH_kernels.json — the recorded thread sweep
# of the unsorted-hash local multiply, the heap/hash/hybrid crossover
# measurements with the sorted-hash kernel beside them (heap and hybrid, the
# Table VII / Fig. 15 baselines, are localmm's test-only comparators; the
# engine does not run them), the sorted hash merge on the Merge-Fiber and
# hypersparse shapes, a one-layer grid's two merges with the sort in the
# drain against the copy-and-sort it replaced, and the test-only heap merge
# of unsorted and of sorted operands, a q = 2 and a q = 4
# Merge-Layer with its stages' multiplies materialized, with the last one
# fused into the merge (the pipelined schedule) and with all of them fused
# (the staged one) (BenchmarkMergeLayer, on kmer-hyper-like and protein-like
# stage blocks),
# the format-generic multiply on a DCSC operand, and the one-vs-two
# worker sweep the kernels' worker floor is set from
# (localmm.workPerExtraWorker), and the direct-table versus hash-table sweep
# the accumulator's regime bound is set from (localmm.directTableBytes:
# BenchmarkAccumulatorCrossover, multiply and merge over 2¹⁰–2²⁰ rows at 1 to
# 144 contributions a column — 88 cells of rows that almost never meet — plus
# 36 hits= cells: multiply, merge and the symbolic count at 2¹⁰ and 2¹⁵ rows
# where 0, 50 or 90 % of a column's contributions land on a row already in
# the table, the axis on which an insert that branches on hit-or-new shows;
# 204 benchmark cells in the target all told, 150 before that axis and 196
# before BenchmarkMergeLayer's q = 4 and fused-all cells), on this runner,
# with the runner's NumCPU, GOMAXPROCS and Go version beside them (a thread
# sweep means nothing without the core count). The sweep runs five times
# over, one whole pass after another, and the file keeps each cell's median
# and its fastest and slowest sample (bench-json): on a shared host one
# sample can flip a verdict — a single run read the dense hybrid cell 0.98×
# unsorted hash where five read 1.22×. Because every pass visits every cell,
# a cell's five samples are spread over the whole run, so its min and max
# cover the load the run met; and the cells a verdict compares (workers=1
# beside workers=2, one kernel beside another) are taken side by side in
# each pass, under the same load. Each pass fits go test's default timeout.
# The file is written only when all five passes succeed. Wall-clock numbers;
# informational (the checked-in snapshot documents the runner the defaults
# were sanity-checked on), not a regression gate. The nightly workflow
# repeats it at KERNELS_BENCHTIME=200ms and uploads the file, so the
# constants sit beside a measurement the runner keeps taking.
KERNELS_BENCHTIME ?= 1s
bench-kernels:
	for pass in 1 2 3 4 5; do \
	  $(GO) test -run='^$$' -bench='HashSpGEMMParallel|KernelCrossover|MergeSortedOutput|MergeLayer|MulMatGeneric|WorkerSpawnCrossover|AccumulatorCrossover' -benchtime=$(KERNELS_BENCHTIME) ./internal/localmm || exit 1; \
	done | $(call bench-json,make bench-kernels) > BENCH_kernels.json.tmp \
	&& mv BENCH_kernels.json.tmp BENCH_kernels.json || { rm -f BENCH_kernels.json.tmp; exit 1; }
	@cat BENCH_kernels.json

# bench-engine: regenerate BENCH_engine.json — one whole distributed multiply
# (host split, 64 or 16 simulated ranks, kernels, merges, assembly or a
# discarding hook) on the shapes of two bench/ workloads, `kmer-hyper` and
# `protein-batched`, plus one Markov-clustering expansion through the daemon
# as a client runs it — upload, cold plan, multiply, download over httptest —
# on the shape of a third, `mcl-service`, and one round of the fourth,
# `resident-warm` — two concurrent clients, four warm-plan products each over
# operands the daemon generated, in process (BenchmarkEngineShapes in
# bench_test.go; parameters copied from bench/README.md): ns, bytes and
# allocations per multiply, with the runner's NumCPU and Go version beside them. Every shape is recorded once
# per entry of ENGINE_CPUS — by default on one core, where the compute gate
# makes ranks take turns, and on all of the runner's — as `shape@cores`, so
# the file shows what the cores bought. Each shape's
# product is first held to a serial multiply of the unsplit operands by shape
# and nonzero count, so the target doubles as a smoke test; the nightly
# workflow runs it as one (ENGINE_BENCHTIME=3x). Wall-clock, informational —
# the numbers a change is judged on come from bench/ — and the way to see a
# workload's shape from the root module without touching bench/.
ENGINE_BENCHTIME ?= 20x
ENGINE_CPUS ?= 1,$$(getconf _NPROCESSORS_ONLN)
bench-engine:
	$(GO) test -run='^$$' -bench='EngineShapes' -benchtime=$(ENGINE_BENCHTIME) -cpu $(ENGINE_CPUS) . \
	| awk -v numcpu="$$(getconf _NPROCESSORS_ONLN)" -v gover="$$($(GO) env GOVERSION)" \
	  'BEGIN{n=0} /^cpu:/{cpu=$$0; sub(/^cpu: */,"",cpu)} /^goos:/{goos=$$2} /^(FAIL|---|panic)/{bad=1} {print > "/dev/stderr"} \
	  /^Benchmark/{name=$$1; sub(/^BenchmarkEngineShapes\//,"",name); procs=1; \
	    if (match(name,/-[0-9]+$$/)) {procs=substr(name,RSTART+1); name=substr(name,1,RSTART-1)} \
	    key=name "@" procs; if (!(key in at)) {at[key]=n; n++} \
	    for (i=3; i<NF; i+=2) if ($$(i+1)=="ns/op") ns=$$i; else if ($$(i+1)=="B/op") by=$$i; else if ($$(i+1)=="allocs/op") al=$$i; else if ($$(i+1)=="flops/op") fl=$$i; \
	    vals[at[key]]=sprintf("    \"%s\": {\"gomaxprocs\": %s, \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"flops_per_op\": %s}",key,procs,$$2,ns,by,al,fl)} \
	  END{if (bad || n==0) exit 1; print "{"; printf "  \"cpu\": \"%s\",\n  \"num_cpu\": %s,\n  \"go_version\": \"%s\",\n  \"goos\": \"%s\",\n  \"regenerate\": \"make bench-engine\",\n  \"shapes\": {\n", cpu, numcpu, gover, goos; \
	  for(i=0;i<n;i++) printf "%s%s\n", vals[i], (i<n-1?",":""); print "  }"; print "}"}' \
	> BENCH_engine.json
	@cat BENCH_engine.json

# profile-engine: CPU and allocation profiles of one engine shape, e.g.
# `make profile-engine SHAPE=protein-batched` (or SHAPE=mcl-service for the
# daemon's request path around the engine, SHAPE=resident-warm for its warm
# read path under two clients), written to cpu.pprof and
# mem.pprof beside the test binary they were taken from (repro.test); read
# them with `go tool pprof -top repro.test cpu.pprof` or
# `go tool pprof -sample_index=alloc_space -top repro.test mem.pprof`.
SHAPE ?= kmer-hyper
profile-engine:
	$(GO) test -run='^$$' -bench='EngineShapes/$(SHAPE)$$' -benchtime=100x -o repro.test -cpuprofile cpu.pprof -memprofile mem.pprof .

# bench-smoke: the end-to-end wall-clock benchmark (bench/, BENCHMARK.json)
# at toy sizes, then its own vet and tests — which include the replay
# identity check: the per-layer replay's flops, unmerged and output nonzeros
# must equal the engine's. It is the one target that drives the daemon's
# return_result path over real TCP through service.Client — the streamed
# product and the client's decode as it reads, checked against the
# benchmark's own reference — so `make ci` runs it on every push (about 10 s)
# and a change that breaks the stream, the decode, the benchmark or the
# identity fails there, before a perf claim leans on it.
bench-smoke:
	bash bench/run.sh -scale smoke -seconds 0.2 && cd bench && $(GO) vet . && $(GO) test .

# trace: record one pinned gate shape (the overlapped Friendster fig-6
# analogue) with the span recorder on and write the per-rank Chrome
# trace-event timeline to trace.json — load it in chrome://tracing or
# ui.perfetto.dev. `TRACE_SHAPE=<name>` picks another gate shape. The
# nightly workflow uploads the artifact so every night's schedule can be
# eyeballed.
TRACE_SHAPE ?= fig6-friendster-overlapped
trace:
	$(GO) run ./cmd/spgemm-bench -trace trace.json -traceshape $(TRACE_SHAPE)

# bench-obs: regenerate BENCH_obs.json — the measured cost of one metering
# charge sequence (comm + compute + hidden) with tracing off vs on. The off
# number is the tax every simulation pays for the observability hooks
# (target: zero allocations, nanoseconds); the on number is what a traced
# run pays per charge. Informational snapshot in the BENCH_kernels.json
# style — the runner's NumCPU, GOMAXPROCS and Go version beside the numbers —
# not a gate: the hard zero-alloc requirement is enforced by
# TestTracingDisabledAddsZeroAllocations in `make test`.
bench-obs:
	$(GO) test -run='^$$' -bench='TraceOverhead' -benchtime=500000x ./internal/mpi \
	| $(call bench-json,make bench-obs) > BENCH_obs.json.tmp \
	&& mv BENCH_obs.json.tmp BENCH_obs.json || { rm -f BENCH_obs.json.tmp; exit 1; }
	@cat BENCH_obs.json

# ci: what the GitHub Actions workflow runs on every push and pull request —
# build, static analysis, gofmt hygiene (doc), the full test suite, the race
# gate, a bounded (30s) fuzz pass, the two deterministic modeled gates
# (perfgate, plan), and the benchmark at toy sizes (bench-smoke: the daemon's
# streamed product over real TCP, result checks and the replay identity).
ci: build vet doc test race fuzz perfgate plan bench-smoke
