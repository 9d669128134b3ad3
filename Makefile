GO ?= go

.PHONY: all build test check vet fuzz-smoke race bench bench-smoke bench-scaling bench-memory benchgate trace-smoke trace-replay-smoke traffic-smoke fmt

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fuzz smoke pass: a few seconds of native fuzzing on each Fuzz* target
# (the seed corpus alone already runs under plain go test).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEnvelopes -fuzztime 5s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz FuzzRecords -fuzztime 5s ./internal/tlssim
	$(GO) test -run '^$$' -fuzz FuzzTransfer -fuzztime 5s ./internal/tcpsim
	$(GO) test -run '^$$' -fuzz FuzzTransfer -fuzztime 5s ./internal/quicsim
	$(GO) test -run '^$$' -fuzz FuzzParseRetention -fuzztime 5s ./internal/har
	$(GO) test -run '^$$' -fuzz FuzzParseOutages -fuzztime 5s ./cmd/h3cdn-measure
	$(GO) test -run '^$$' -fuzz FuzzParseMahimahiTrace -fuzztime 5s ./internal/simnet

# Race-enabled run of the full suite; the campaign worker pool and the
# topology shared read-only across shards are the interesting surfaces
# (shards share no allocator: every pool is confined to one universe).
# Race instrumentation slows the internal/core campaign fixtures ~6x,
# past go test's default 10m per-package timeout — hence the explicit
# one.
race:
	$(GO) test -race -timeout 40m ./...

# The repo's gate: static checks, the fuzz smoke pass, a fast allocation
# smoke pass, the tracing smoke pass, the trace-replay determinism smoke
# pass, the race-enabled suite, the benchmark regression gate, and the
# multi-core scaling gate. The smoke passes run before the (slow) race suite so
# allocation and trace-pipeline regressions fail fast.
check: vet fuzz-smoke bench-smoke trace-smoke trace-replay-smoke traffic-smoke race benchgate bench-scaling bench-memory

# Analysis/figure regeneration benchmarks (shares one campaign per run).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Benchmark regression gate: reruns the recorded benchmarks and fails on
# an allocs/op regression vs their records in BENCH_baseline.json (a 2%
# band). ns/op and B/op are printed, never gated: they move with the
# machine's load.
benchgate:
	$(GO) run ./cmd/benchgate

# Fast allocation smoke pass: one short run of the gated benchmarks,
# with the allocs/op band widened to 15% for the short run's warm-up.
bench-smoke:
	$(GO) run ./cmd/benchgate -benchtime 100ms -smoke

# Multi-core scaling gate: one short run of BenchmarkCampaignScaling
# (smoke-scale corpus), gated on parallel efficiency at 4 workers via
# the gates array of BENCH_scaling.json. The benchmark skips itself on
# single-core machines and benchgate skips the efficiency gate with it.
bench-scaling:
	$(GO) run ./cmd/benchgate -baseline BENCH_scaling.json -benchtime 1x -smoke -only CampaignScaling

# Bounded-memory gate: one short run of BenchmarkCampaignMemory (a
# RetainNone campaign at two corpus scales), gated on peak-RSS growth
# across the page spread via the max_rss_growth gate of
# BENCH_scaling.json. The ratio gate is scale-agnostic, so the smoke
# scales (96/768 pages) enforce the same ceiling the recorded
# 1k/10k-page runs document. The second pass applies the same gate to
# the open-loop population traffic engine across a visit-count spread
# (BenchmarkPopulationCampaign; the recorded 100k-visit run documents
# the claim at scale).
bench-memory:
	$(GO) run ./cmd/benchgate -baseline BENCH_scaling.json -benchtime 1x -smoke -only CampaignMemory
	H3CDN_TRAFFIC_VISITS=1200,9600 $(GO) run ./cmd/benchgate -baseline BENCH_scaling.json -benchtime 1x -smoke -only PopulationCampaign

# Trace-replay smoke pass: run the same variable-link campaign (synthetic
# cellular trace + bursty loss) sequentially and with 2 workers, and
# require byte-identical datasets — the cheap end-to-end check that
# TraceLink replay composed with the fault layer stays deterministic
# under sharding.
trace-replay-smoke:
	rm -rf .trace-replay-smoke && mkdir -p .trace-replay-smoke
	$(GO) run ./cmd/h3cdn-measure -pages 6 -link-trace lte -burst-loss 0.01 -sequential -o .trace-replay-smoke/seq.json
	$(GO) run ./cmd/h3cdn-measure -pages 6 -link-trace lte -burst-loss 0.01 -workers 2 -o .trace-replay-smoke/par.json
	cmp .trace-replay-smoke/seq.json .trace-replay-smoke/par.json
	rm -rf .trace-replay-smoke

# Population-traffic smoke pass: the same open-loop traffic campaign run
# sequentially and with 2 workers must produce byte-identical datasets
# (user partitioning is worker-count independent), and a checkpointed
# run driven epoch by epoch through kill/resume cycles must reproduce
# the uninterrupted dataset byte for byte. The third leg repeats both
# checks under sampled HAR retention, whose reservoir rides in the
# checkpoint.
TRAFFIC_SMOKE_FLAGS = -pages 8 -traffic -traffic-users 24 -traffic-users-per-shard 10 \
	-traffic-rate 2 -traffic-duration 30s -traffic-epoch 10s -traffic-ttl 15s \
	-traffic-think 2s
traffic-smoke:
	rm -rf .traffic-smoke && mkdir -p .traffic-smoke/ckpt
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -sequential -o .traffic-smoke/seq.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -workers 2 -o .traffic-smoke/par.json
	cmp .traffic-smoke/seq.json .traffic-smoke/par.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -o .traffic-smoke/resumed.json
	cmp .traffic-smoke/seq.json .traffic-smoke/resumed.json
	mkdir -p .traffic-smoke/ckpt-sample
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -har-retention sample:4 -sequential -o .traffic-smoke/sample-seq.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -har-retention sample:4 -workers 2 -traffic-checkpoint .traffic-smoke/ckpt-sample -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -har-retention sample:4 -workers 2 -traffic-checkpoint .traffic-smoke/ckpt-sample -o .traffic-smoke/sample-resumed.json
	cmp .traffic-smoke/sample-seq.json .traffic-smoke/sample-resumed.json
	rm -rf .traffic-smoke

# Tracing smoke pass: run a small traced campaign through h3cdn-measure
# -qlog and validate every emitted qlog line with qlogcheck.
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke
	$(GO) run ./cmd/h3cdn-measure -pages 4 -qlog .trace-smoke -o .trace-smoke/dataset.json
	$(GO) run ./cmd/qlogcheck -dir .trace-smoke
	rm -rf .trace-smoke

fmt:
	gofmt -l -w .
