GO ?= go

.PHONY: all build test check fmt-check vet fuzz-smoke race bench bench-smoke digest-smoke bench-scaling bench-memory benchgate trace-smoke trace-replay-smoke traffic-smoke report-smoke fmt

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting check: fails on any file gofmt would rewrite (make fmt
# rewrites them).
fmt-check:
	test -z "$$(gofmt -l .)"

# Fuzz smoke pass: a few seconds of native fuzzing on each Fuzz* target
# (the seed corpus alone already runs under plain go test). FuzzRecords
# and FuzzScheduler cap minimization at 200 runs: with the default 60s,
# minimizing their first new input takes the whole pass.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEnvelopes -fuzztime 5s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz FuzzClientResponses -fuzztime 5s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz FuzzRecords -fuzztime 5s -fuzzminimizetime 200x ./internal/tlssim
	$(GO) test -run '^$$' -fuzz FuzzTLSTransfer -fuzztime 5s ./internal/tlssim
	$(GO) test -run '^$$' -fuzz FuzzReassembly -fuzztime 5s ./internal/bytestream
	$(GO) test -run '^$$' -fuzz FuzzTransfer -fuzztime 5s ./internal/tcpsim
	$(GO) test -run '^$$' -fuzz FuzzTransfer -fuzztime 5s ./internal/quicsim
	$(GO) test -run '^$$' -fuzz FuzzWindow -fuzztime 5s ./internal/cc
	$(GO) test -run '^$$' -fuzz FuzzParseRetention -fuzztime 5s ./internal/har
	$(GO) test -run '^$$' -fuzz FuzzParseOutages -fuzztime 5s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzParseMahimahiTrace -fuzztime 5s ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzScheduler -fuzztime 5s -fuzzminimizetime 200x ./internal/simnet
	$(GO) test -run '^$$' -fuzz FuzzSketchJSON -fuzztime 5s ./internal/sketch
	$(GO) test -run '^$$' -fuzz FuzzCheckpoint -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLoadDataset -fuzztime 5s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzQlogcheck -fuzztime 5s ./cmd/qlogcheck

# Race-enabled run of the full suite; the campaign worker pool and the
# topology shared read-only across shards are the interesting surfaces
# (concurrent shards share no allocator: every pool belongs to one worker,
# whose shards use it one at a time).
# Race instrumentation slows the internal/core campaign fixtures ~6x,
# past go test's default 10m per-package timeout — hence the explicit
# one.
race:
	$(GO) test -race -timeout 40m ./...

# The repo's gate: the formatting and static checks, the fuzz smoke pass, a fast allocation
# smoke pass, the simulation digest pass, the tracing smoke pass, the trace-replay determinism smoke
# pass, the population-traffic and report smoke passes, the race-enabled
# suite, the benchmark regression gate, and the multi-core scaling gate.
# The smoke passes run before the (slow) race suite so allocation and
# trace-pipeline regressions fail fast.
check: fmt-check vet fuzz-smoke bench-smoke digest-smoke trace-smoke trace-replay-smoke traffic-smoke report-smoke race benchgate bench-scaling bench-memory

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
# 300ms amortizes that warm-up over enough visits to stay inside the
# band of records pinned at the 2s readings.
bench-smoke:
	$(GO) run ./cmd/benchgate -benchtime 300ms -smoke

# Simulation digest pass: run every bench workload at smoke scale under
# seeds 2022 and 7 and require the sim_digests pinned in
# testdata/sim_digests.txt, so a change that claims to move no simulated
# byte is checked without a second checkout.
digest-smoke:
	rm -rf .digest-smoke && mkdir -p .digest-smoke
	$(GO) build -o .digest-smoke/bench ./bench
	for s in 2022 7; do \
		.digest-smoke/bench -smoke -seed $$s -out "" > .digest-smoke/$$s.out 2> .digest-smoke/$$s.err || exit 1; \
		sed -n "s/^# \([a-z]*\):.* sim_digest=\([0-9a-f]*\).*/$$s \1 \2/p" .digest-smoke/$$s.out; \
	done > .digest-smoke/got.txt
	grep -v '^#' testdata/sim_digests.txt | diff - .digest-smoke/got.txt
	rm -rf .digest-smoke

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
# cellular trace + bursty loss) with 1 and with 2 workers, and
# require byte-identical datasets — the cheap end-to-end check that
# TraceLink replay composed with the fault layer stays deterministic
# under sharding.
trace-replay-smoke:
	rm -rf .trace-replay-smoke && mkdir -p .trace-replay-smoke
	$(GO) run ./cmd/h3cdn-measure -pages 6 -link-trace lte -burst-loss 0.01 -workers 1 -o .trace-replay-smoke/seq.json
	$(GO) run ./cmd/h3cdn-measure -pages 6 -link-trace lte -burst-loss 0.01 -workers 2 -o .trace-replay-smoke/par.json
	cmp .trace-replay-smoke/seq.json .trace-replay-smoke/par.json
	rm -rf .trace-replay-smoke

# Population-traffic smoke pass: the same open-loop traffic campaign run
# with 1 and with 2 workers must produce byte-identical datasets
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
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -workers 1 -o .traffic-smoke/seq.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -workers 2 -o .traffic-smoke/par.json
	cmp .traffic-smoke/seq.json .traffic-smoke/par.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -traffic-checkpoint .traffic-smoke/ckpt -o .traffic-smoke/resumed.json
	cmp .traffic-smoke/seq.json .traffic-smoke/resumed.json
	mkdir -p .traffic-smoke/ckpt-sample
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -har-retention sample:4 -workers 1 -o .traffic-smoke/sample-seq.json
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -har-retention sample:4 -workers 2 -traffic-checkpoint .traffic-smoke/ckpt-sample -traffic-halt-epochs 1 -o /dev/null
	$(GO) run ./cmd/h3cdn-measure $(TRAFFIC_SMOKE_FLAGS) -har-retention sample:4 -workers 2 -traffic-checkpoint .traffic-smoke/ckpt-sample -o .traffic-smoke/sample-resumed.json
	cmp .traffic-smoke/sample-seq.json .traffic-smoke/sample-resumed.json
	rm -rf .traffic-smoke

# Report smoke pass: h3cdn-report -exp all renders the same text and
# writes the same -plot files from its own campaigns as from datasets
# h3cdn-measure wrote under the same shared flags (so both commands build
# the same campaign); -exp all plans 4 campaigns, Figure 9's 0%-added arm
# sharing the standard one, and 2 from the files, which answer that arm
# too; every row, the sweeps -exp all leaves out included, completes in
# one run that shares and releases datasets; the path flags reach the
# report's campaigns: -exp phases traces a lossy path, and an impaired
# dataset answers the rows of the same impaired campaign (0 campaigns)
# with the same text; and per-page logs are never read from where none
# were kept: -exp f9 under -har-retention none is a usage error (exit
# 2), and a dataset file written under it fails to load (exit 1).
report-smoke:
	rm -rf .report-smoke && mkdir -p .report-smoke
	$(GO) build -o .report-smoke/h3cdn-measure ./cmd/h3cdn-measure
	$(GO) build -o .report-smoke/h3cdn-report ./cmd/h3cdn-report
	.report-smoke/h3cdn-measure -pages 6 -o .report-smoke/std.json
	.report-smoke/h3cdn-measure -pages 6 -consecutive -o .report-smoke/cons.json
	.report-smoke/h3cdn-report -pages 6 -exp all -plot .report-smoke/own > .report-smoke/own.txt 2> .report-smoke/own.err
	grep -qx 'h3cdn-report: 4 campaigns for 12 rows' .report-smoke/own.err
	.report-smoke/h3cdn-report -pages 6 -exp all -plot .report-smoke/loaded \
		-dataset .report-smoke/std.json -consecutive-dataset .report-smoke/cons.json > .report-smoke/loaded.txt 2> .report-smoke/loaded.err
	grep -qx 'h3cdn-report: 2 campaigns for 12 rows' .report-smoke/loaded.err
	cmp .report-smoke/own.txt .report-smoke/loaded.txt
	diff -r .report-smoke/own .report-smoke/loaded
	.report-smoke/h3cdn-report -pages 6 -exp all,phases,lossprofile,celltrace,popcache \
		-pop-users 16 -pop-duration 20s > /dev/null
	.report-smoke/h3cdn-report -pages 6 -exp phases -burst-loss 0.02 > /dev/null
	.report-smoke/h3cdn-measure -pages 6 -burst-loss 0.02 -jitter 2ms -o .report-smoke/imp.json
	.report-smoke/h3cdn-report -pages 6 -burst-loss 0.02 -jitter 2ms -exp t2,f6a,f7 > .report-smoke/imp-own.txt
	.report-smoke/h3cdn-report -pages 6 -burst-loss 0.02 -jitter 2ms -exp t2,f6a,f7 \
		-dataset .report-smoke/imp.json > .report-smoke/imp-loaded.txt 2> .report-smoke/imp-loaded.err
	grep -qx 'h3cdn-report: 0 campaigns for 3 rows' .report-smoke/imp-loaded.err
	cmp .report-smoke/imp-own.txt .report-smoke/imp-loaded.txt
	.report-smoke/h3cdn-report -pages 6 -exp f9 -har-retention none > /dev/null 2>&1; test $$? -eq 2
	.report-smoke/h3cdn-measure -pages 6 -har-retention none -o .report-smoke/none.json
	.report-smoke/h3cdn-report -pages 6 -exp t2 -dataset .report-smoke/none.json > /dev/null 2>&1; test $$? -eq 1
	rm -rf .report-smoke

# Tracing smoke pass: run a small traced campaign through h3cdn-measure
# -qlog, clean and then impaired (bursty loss, jitter, reordering and the
# LTE link trace), and validate every emitted qlog line with qlogcheck.
trace-smoke:
	rm -rf .trace-smoke && mkdir -p .trace-smoke/clean .trace-smoke/impaired
	$(GO) run ./cmd/h3cdn-measure -pages 4 -qlog .trace-smoke/clean -o .trace-smoke/dataset.json
	$(GO) run ./cmd/qlogcheck -dir .trace-smoke/clean
	$(GO) run ./cmd/h3cdn-measure -pages 8 -burst-loss 0.02 -jitter 2ms -reorder 0.01 -link-trace lte -qlog .trace-smoke/impaired -o .trace-smoke/impaired.json
	$(GO) run ./cmd/qlogcheck -dir .trace-smoke/impaired
	rm -rf .trace-smoke

fmt:
	gofmt -l -w .
