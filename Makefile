GO ?= go

.PHONY: all check vet lint build test bench-smoke bench bench-obs bench-journal fuzz-smoke trace-smoke clean

all: check

check: vet lint build test

vet:
	$(GO) vet ./...

# The project-invariant analyzer suite (internal/analysis): determinism,
# error, lock, float-comparison, and concurrency discipline. -list
# additionally fails if any analyzer lacks a golden test.
lint:
	$(GO) run ./cmd/lppm-lint -list
	$(GO) run ./cmd/lppm-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Quick single-pass benchmarks, as a CI smoke that the serving path and
# the evaluation hot path still run end-to-end. The eval benchmark also
# records its metrics to BENCH_eval.json so the perf trajectory is kept.
bench-smoke:
	BENCH_EVAL_JSON=BENCH_eval.json $(GO) test -run '^$$' -bench='Gateway|AnalyzeHotPath' -benchtime=1x -benchmem .

bench:
	$(GO) test -run '^$$' -bench=. -benchmem .

# Observability overhead: the same gateway workload with collection on —
# registry plus a fully-sampled span tracer — and with everything off
# (obs.Nop(), nil tracer), interleaved per iteration. The benchmark
# asserts bit-identical protected output in both modes always, and the
# < 2% throughput budget once the sample is long enough to mean something;
# the measurement lands in BENCH_obs.json (CI applies a looser 5% red line
# to it on multicore runners, see ci.yml).
bench-obs:
	BENCH_OBS_JSON=BENCH_obs.json $(GO) test -run '^$$' -bench='ObsOverhead' -benchtime=20x .

# Journal (crash-safety) cost: the same gateway workload with the
# write-behind journal on and off, interleaved per iteration, at the
# default fsync policy lppm-serve runs. The benchmark asserts
# bit-identical protected output in both modes and reports the overhead
# and fsyncs per append in BENCH_journal.json; it gates no budget, since
# the cost is set by the host's fsync latency.
bench-journal:
	BENCH_JOURNAL_JSON=BENCH_journal.json $(GO) test -run '^$$' -bench='JournalOverhead' -benchtime=20x .

# Short fuzz pass over the journal frame decoder, the traceparent parser,
# the JSONL codec and the two evaluation kernels: the fuzz engine mutates
# the committed corpora (torn frames, flipped CRCs, truncated varints;
# malformed W3C headers; JSON the fixed-schema codec must hand to
# encoding/json; traces for area coverage; W₋₁ arguments) and each target
# asserts its decoder never panics and round-trips what it accepts, or,
# for the codec and area coverage, matches its reference exactly, or, for
# LambertWm1, stays on the branch, within its residual bound and
# monotone. Go runs one -fuzz target per invocation, so they run back to
# back.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/journal
	$(GO) test -run '^$$' -fuzz 'FuzzParseTraceparent' -fuzztime 10s ./internal/obs/tracing
	$(GO) test -run '^$$' -fuzz 'FuzzJSONLDecodeDifferential' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz 'FuzzJSONLEncodeDifferential' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz 'FuzzAreaCoverageDifferential' -fuzztime 10s ./internal/metrics
	$(GO) test -run '^$$' -fuzz 'FuzzLambertWm1' -fuzztime 10s ./internal/stat

# Tracing smoke: drive a traced fleet through the in-process server and
# dump the span ring as Chrome trace_event JSON (trace.chrome) — the file
# CI uploads and the README's Perfetto walkthrough loads.
trace-smoke:
	$(GO) run ./cmd/lppm-load -self-serve -users 4 -points 96 -flush 16 \
		-conns 2 -trace-out trace.chrome

clean:
	$(GO) clean ./...
