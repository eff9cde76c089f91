# Developer convenience targets. `make check` is the full pre-commit
# gate: formatting, vet (of this module and the hsisbench module), build,
# the dead-code scan, race-enabled tests (which cover the armed-telemetry
# paths, including the background live-node sampler), a one-iteration
# smoke run of the kernel benchmarks, and a traced end-to-end shell run.

GO ?= go

.PHONY: check fmt vet build deadcode test test-server lint-metrics bench-smoke bench-iso-smoke bench-reorder-smoke trace-smoke bench bench-server bench-reorder bench-iso bench-all

check: fmt vet build deadcode test test-server lint-metrics bench-smoke bench-iso-smoke bench-reorder-smoke trace-smoke

# Fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# hsisbench is a separate module that `./...` does not reach; vetting it
# compiles it, so an API change that breaks the benchmark fails here.
vet:
	$(GO) vet ./...
	cd hsisbench && $(GO) vet .

build:
	$(GO) build ./...

# Fails on any function under internal/ that no entry point (cmd/*,
# examples/*, internal/tools/*, hsisbench) links and that
# internal/tools/deadcode/allow.txt does not list with a reason.
deadcode:
	$(GO) run ./internal/tools/deadcode

# -race covers what still runs concurrently: the hsisd job pool and the
# telemetry layer (the tracer tests arm a process-wide sink and run the
# sampler goroutine against kernel gauge publications, so a data race
# between a job and the sampler fails here).
test:
	$(GO) test -race ./...

# The daemon shard: the hsisd job server under -race — fair-queue
# dispatch, admission control (429), artifact-cache sharing across
# concurrent jobs, mid-fixpoint deadline/cancel interrupts — plus the
# binary smoke test (boot on an ephemeral port, drive a job through the
# HTTP API, SIGTERM to a clean exit).
test-server:
	$(GO) test -race -count=1 ./internal/server ./cmd/hsisd

# Metrics-name lint: walks the live registry of a freshly built server
# and asserts every exported series name matches hsis_[a-z_]+ and is
# registered exactly once (duplicates also panic at construction).
lint-metrics:
	$(GO) test -run 'TestMetricsNameLint' -count=1 ./internal/server

# End-to-end traced run: reachability plus a property check on a bundled
# design with -trace, verifying the shell emits a parseable JSONL trace
# and a summary without disturbing the verification result.
trace-smoke:
	@tmp=$$(mktemp -d); \
	printf 'read_builtin mdlc2\ncompute_reach\ncheck_all\nquit\n' \
		| $(GO) run ./cmd/hsis -trace $$tmp/run.jsonl > $$tmp/out.txt \
		&& grep -q 'telemetry summary' $$tmp/out.txt \
		&& test -s $$tmp/run.jsonl \
		&& echo "trace-smoke: ok ($$(wc -l < $$tmp/run.jsonl) events)"; \
	status=$$?; rm -rf $$tmp; exit $$status

# One iteration of the kernel benchmarks (image pipeline plus the
# negation-heavy sweep) and of the early-quantification rows of
# Ablation A: enough to catch a regression that breaks an engine, the
# complement-edge kernel or the quantification schedule outright without
# paying for a full benchmark run. The naive Ablation A rows stay out
# (mdlc2's alone takes about 25 s).
bench-smoke:
	$(GO) test -bench='(BenchmarkImage|BenchmarkNegationHeavy)$$' -benchtime=1x -run='^$$' .
	$(GO) test -bench='BenchmarkEarlyQuant/.*/minwidth$$' -benchtime=1x -run='^$$' .

# The kernel benchmarks with allocation stats, recorded to
# BENCH_bdd.json for comparison across commits. The benchmarks report
# the unified Statistics.BenchMetrics set (peak-live-nodes,
# peak-bdd-nodes, cache-hit-%), so benchjson lands the telemetry
# summary's headline numbers in the JSON alongside ns/op.
bench: bench-server
	$(GO) test -bench='(BenchmarkImage|BenchmarkNegationHeavy)$$' -benchmem -benchtime=3x -run='^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson > BENCH_bdd.json

# Daemon throughput and latency: batches of jobs through the full
# admission/dispatch/verify path at 1/4/8 workers, recorded to
# BENCH_server.json with end-to-end jobs/s plus the queue-wait and
# execution p50/p99 read back from the server's own histograms.
bench-server:
	$(GO) test -bench='BenchmarkServer$$' -benchtime=1x -run='^$$' ./internal/server \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson > BENCH_server.json

# One cold iteration of accelerated auto sifting on scrambled mdlc2:
# exercises the interaction-matrix fast path and the lower-bound abort
# end to end per commit without paying for the off contest rows.
bench-reorder-smoke:
	$(GO) test -bench='BenchmarkReorder/mdlc2/auto$$' -benchtime=1x -run='^$$' .

# Dynamic-reordering contest: reachability with sifting off and with
# auto sifting, recorded to BENCH_reorder.json. scheduler-8 and mdlc2
# run from a scrambled (appended) variable order; philos-16 runs from
# its default order (the appended order is intractable with sifting off
# or on) and has no off row. The off rows show what the bad order costs;
# benchjson derives speedup-vs-off onto the auto rows.
# bench/reorder_prechange.txt holds raw rows replayed once from the
# revision before the fast-reorder work (level-keyed nodes, no
# interaction matrix, no trigger back-off) and is spliced into the
# stream so sift-speedup-vs-prechange lands in the JSON next to the live
# measurements; regenerate it from that revision if the reference
# hardware changes.
bench-reorder:
	($(GO) test -bench='BenchmarkReorder' -benchtime=1x -timeout=90m -run='^$$' . \
		| tee /dev/stderr; \
		cat bench/reorder_prechange.txt 2>/dev/null || true) \
		| $(GO) run ./internal/tools/benchjson > BENCH_reorder.json

# One cold iteration of the plan benchmark on the generated philos-16:
# catches an isomorphism-detection or permutation-instantiation
# regression without paying for the full scaled sweep.
bench-iso-smoke:
	$(GO) test -bench='BenchmarkIso/philos-16' -benchtime=1x -run='^$$' .

# The network's one image plan (compile plus replay) on the
# parameterized ring designs (philos-16/64, scheduler-32), where it is
# iso-instantiated, recorded to BENCH_iso.json, one row per design. Cold single iterations: the
# GC-surviving op caches make warm repeats nearly free, and the compile
# phase is part of what is measured.
bench-iso:
	$(GO) test -bench='BenchmarkIso$$' -benchtime=1x -timeout=30m -run='^$$' . \
		| tee /dev/stderr \
		| $(GO) run ./internal/tools/benchjson > BENCH_iso.json

# The full Table-1 regeneration and ablation suite.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$' .
