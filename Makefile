GO ?= go

# Packages whose tests exercise the worker pool, the shared caches or the
# online serving path; these run a second time under the race detector.
RACE_PKGS = ./internal/parallel ./internal/tuning ./internal/bench ./internal/core \
	./internal/sparse ./internal/knn ./internal/online ./internal/faultfs \
	./internal/wal ./internal/metrics ./internal/segment ./internal/serve \
	./internal/retry ./internal/repl ./internal/query ./internal/match ./internal/vector \
	./internal/text ./internal/slots ./cmd/erserve

# The regex-selected gates. A -run regex silently drops a renamed test,
# so each gate records a floor — the number of tests, fuzz targets and
# examples it selected when last audited — and `make gates` fails when
# `go test -list` finds fewer. Raise a floor when a gate gains tests;
# lower one only when the deleted test names its replacement.
#
# Re-audited when the per-format corruption tests became registrations
# with internal/frame/frametest (PR 17). No name a gate selected went
# away — the *RejectsEveryTruncation/BitFlip pairs and FuzzLoad* targets
# keep their names over one-line bodies — so no floor maps old → new;
# each rose by the tests that PR added:
#   chaos 41 → 44: TestConfigMetaCorruption, TestWALPayloadCorruption,
#                  TestWALStreamCorruption
#   ann   21 → 25: TestHNSWLoadToleratesTrailingBytes,
#                  TestHNSWLoadReadsExactlyItsStream (+2 the floor lagged)
#   lsm   28 → 31: TestSegmentLoadRejectsTrailingBytes,
#                  TestManifestLoadRejectsTrailingBytes (+1 it lagged)
#   repl  32 → 33: the floor lagged by one
#
# Re-audited when internal/hit replaced the per-package hit types (PR
# 19): every test that named one was ported under its own name, so every
# gate selects what it selected; one floor lagged:
#   lsm   31 → 32: TestSegmentKNNQueryEqualsFullSort (PR 18)
#
# chaos: crash recovery, torn writes, fsync failures, degraded mode and
# overload shedding across the durability stack.
CHAOS_PKGS = ./internal/faultfs ./internal/wal ./internal/knn ./internal/segment ./internal/online ./internal/serve ./internal/repl ./internal/match ./cmd/erserve
CHAOS_RUN = 'Crash|Torn|Corrupt|Truncat|BitFlip|Degraded|Overload|Sticky|Graceful|Panic|SaveFileAtomic|SyncFault'
CHAOS_FLOOR = 44
SHARD_PKGS = ./internal/online ./internal/serve ./cmd/erserve
SHARD_RUN = 'Sharded'
SHARD_FLOOR = 10
ANN_PKGS = ./internal/knn ./internal/online ./internal/serve ./cmd/erserve
ANN_RUN = 'HNSW|ANN'
ANN_FLOOR = 25
LSM_PKGS = ./internal/segment ./internal/online ./cmd/erserve
LSM_RUN = 'Segment|Manifest|Tier|DiskStore|Storage|ValidateOptions'
LSM_FLOOR = 32
REPL_PKGS = ./internal/wal ./internal/online ./internal/repl ./internal/serve ./cmd/erserve
REPL_RUN = 'Repl|Follower|Failover|Lease|SemiSync'
REPL_FLOOR = 33
MATCH_PKGS = ./internal/match ./internal/serve ./cmd/erserve
MATCH_RUN = 'Match|Dirty|Assign|Bipartite|Greedy|Cluster|Hungarian'
MATCH_FLOOR = 16

# Every fuzz target, package:target: one per persisted format (all
# registered with internal/frame/frametest), the query parser, and the
# text kernels held to their reference bodies (tokens, n-grams, cleaning).
FUZZ_TARGETS = ./internal/online:FuzzLoad ./internal/online:FuzzDecodeConfigMeta \
	./internal/online:FuzzWALPayloads ./internal/knn:FuzzLoadHNSW \
	./internal/segment:FuzzLoadSegment ./internal/segment:FuzzLoadManifest \
	./internal/wal:FuzzWALStream ./internal/query:FuzzParseQuery \
	./internal/text:FuzzTokensMatchReference ./internal/text:FuzzCleanMatchesReference
FUZZTIME ?= 5s

# The packages whose non-test line count every CHANGES.md entry since
# PR 14 has quoted: the request path from the kernels to the encoder
# (slots, the incremental indexes' shared bookkeeping, since it left them).
LOC_PKGS = sparse knn segment online serve match hit slots
# The batch pipeline above the kernels — the paper's workflows, their
# tuners and the experiment driver — which PR 20 was held to.
LOC_BATCH_PKGS = core tuning bench lsh
# The deployment layer above the request path — the daemon (cmd/erserve)
# and the replication roles — which PR 22 was held to.
LOC_DEPLOY_PKGS = erserve repl

.PHONY: check fmt loc vet build test purego perf-test race gates fuzz-smoke chaos shard ann lsm repl repl-smoke bulk match scrape bench-tune bench-serve bench-wal bench-obs bench-shard bench-ann bench-ann-build bench-lsm bench-repl bench-bulk bench-match

## check: the full verification gate (gofmt, vet, build, tests, the pure-Go kernel leg, perf's own tests, race tests, gate floors, chaos, shard, ann, lsm, repl, repl-smoke, bulk, match)
check: fmt vet build test purego perf-test race gates chaos shard ann lsm repl repl-smoke bulk match

## fmt: gofmt must have nothing to say about any file in the tree
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l . lists:"; echo "$$out"; exit 1; }

## loc: non-test lines per request-path package and their total, the same
## for the batch packages and for the deployment layer, then every non-test
## .go line outside perf/ — the measure a simplification is held to
## (`ls <pkg>/*.go | grep -v _test | xargs cat | wc -l`; moving lines into
## _test.go files does not count)
loc:
	@for group in "$(LOC_PKGS)" "$(LOC_BATCH_PKGS)" "$(LOC_DEPLOY_PKGS)"; do \
		total=0; for p in $$group; do \
			d=internal/$$p; [ -d $$d ] || d=cmd/$$p; \
			n=$$(ls $$d/*.go | grep -v _test | xargs cat | wc -l); \
			printf '%-8s %6d\n' $$p $$n; total=$$((total + n)); \
		done; printf '%-8s %6d\n\n' total $$total; \
	done; \
	printf '%-8s %6d\n' all $$(find . -name '*.go' ! -name '*_test.go' ! -path './perf/*' ! -path './.bench_build/*' | xargs cat | wc -l)

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## purego: the dense packages again with vector.Dot / vector.L2Sq as their
## Go definitions instead of the amd64 AVX2 kernels — the path arm64 and
## pre-AVX2 hosts run, which no amd64 CI host would otherwise execute; the
## digests TestKernelPinnedDigests pins must read the same on both
PUREGO_PKGS = ./internal/vector ./internal/knn ./internal/segment ./internal/online
purego:
	$(GO) test -tags purego $(PUREGO_PKGS)

## perf-test: the benchmark harness is its own module (erfilter/perf),
## which the root `go test ./...` never enters
perf-test:
	$(GO) vet -C perf ./... && $(GO) test -C perf ./...

## gates: every regex-selected gate still selects at least its floor
gates:
	@fail=0; \
	floor() { n=$$($(GO) test -list "$$2" $$4 | grep -cE '^(Test|Fuzz|Example)'); \
		echo "gate $$1: $$n selected, floor $$3"; [ "$$n" -ge "$$3" ] || fail=1; }; \
	floor chaos $(CHAOS_RUN) $(CHAOS_FLOOR) "$(CHAOS_PKGS)"; \
	floor shard $(SHARD_RUN) $(SHARD_FLOOR) "$(SHARD_PKGS)"; \
	floor ann $(ANN_RUN) $(ANN_FLOOR) "$(ANN_PKGS)"; \
	floor lsm $(LSM_RUN) $(LSM_FLOOR) "$(LSM_PKGS)"; \
	floor repl $(REPL_RUN) $(REPL_FLOOR) "$(REPL_PKGS)"; \
	floor match $(MATCH_RUN) $(MATCH_FLOOR) "$(MATCH_PKGS)"; \
	[ $$fail -eq 0 ] || { echo "a gate fell below its floor: a renamed test no longer matches its -run regex"; exit 1; }

## fuzz-smoke: every fuzz target for FUZZTIME each — `go test -fuzz`
## takes one target per invocation. `go test ./...` only replays the seed
## corpus; this is what actually mutates. A crasher lands in the
## package's testdata/fuzz/<target>/ — commit it with the fix.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) "$${t%%:*}" || exit 1; \
	done

## race: race-detector pass over the concurrency-bearing packages (the
## serve leg alone runs about 11 minutes under -race, past go test's
## 10-minute default)
race:
	$(GO) test -race -timeout 30m $(RACE_PKGS)

## chaos: fault-injection suite under the race detector — crashes, torn
## writes, fsync failures, degraded read-only mode, overload shedding
chaos:
	$(GO) test -race -count 1 -run $(CHAOS_RUN) $(CHAOS_PKGS)

## bench-tune: sequential vs parallel grid-search benchmark pair
bench-tune:
	$(GO) test -run '^$$' -bench 'BenchmarkTune(Sequential|Parallel)$$' -benchtime 10x -count 3 .

## bench-serve: online resolver under mixed read/write load
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServe(Query|Insert)' -benchtime 200x -count 3 ./internal/online

## bench-wal: durable (WAL + fsync) vs volatile insert path
bench-wal:
	$(GO) test -run '^$$' -bench 'Benchmark(Serve|Store)Insert' -benchtime 2s -cpu 1,4 ./internal/online

## shard: the sharded-equivalence gate — property tests proving an
## N-shard resolver is byte-identical to the one-shard resolver
## (including after deletes, compaction and crash recovery), under the
## race detector
shard:
	$(GO) test -race -count 1 -run $(SHARD_RUN) $(SHARD_PKGS)

## ann: the approximate-tier gate — recall-floor property tests of the
## incremental HNSW against the flat oracle (inserts, deletes past
## compaction, save/load round-trips, shard counts 1..8) plus the codec
## corruption suite, under the race detector
ann:
	$(GO) test -race -count 1 -run $(ANN_RUN) $(ANN_PKGS)

## lsm: the on-disk segment-tier gate — property tests proving the
## disk-backed resolver is byte-identical to the in-memory oracle
## (deletes past merge GC, mid-stream flushes, save/load, shard counts
## 1..8, crash recovery over torn-tail WALs), plus the segment and
## manifest corruption suites, under the race detector
lsm:
	$(GO) test -race -count 1 -run $(LSM_RUN) $(LSM_PKGS)

## repl: the replication gate — WAL-shipping property tests (follower
## convergence to byte-identical answers, epoch read-your-writes,
## lease fencing) including the kill-the-leader failover test, under
## the race detector
repl:
	$(GO) test -race -count 1 -run $(REPL_RUN) $(REPL_PKGS)

## repl-smoke: the replication experiment once, tiny — a leader and a
## follower over real HTTP behind the routing proxy; the run fails unless
## every replica answers a probe sample byte-for-byte like the leader.
## cmd/erbench has no tests, so this is what executes replExperiment.
repl-smoke:
	$(GO) run ./cmd/erbench -exp repl -repl-entities 300 -repl-queries 100 -repl-max 2

## bulk: the streaming-ingestion gate — feeds a 100k-row NDJSON stream
## through the live server and fails unless the heap envelope stays
## bounded and a deterministic sample of the answers is byte-identical
## to /v1/query/batch
bulk:
	$(GO) test -count 1 -run 'TestBulkStreamGate' ./internal/serve

## match: the match-stage gate — greedy/bipartite assignment properties,
## the batch-vs-online match equivalence test, dirty-ER incremental ==
## batch clustering (including crash recovery over torn-tail WALs) and
## the serve-layer match/cluster endpoints, under the race detector
match:
	$(GO) test -race -count 1 -run $(MATCH_RUN) $(MATCH_PKGS)

## bench-match: the end-to-end match-stage experiment — P/R/F1 of the
## decided matches against generated groundtruth for greedy vs bipartite
## assignment, with the sharded path checked byte-identical to the
## single resolver
bench-match:
	$(GO) run ./cmd/erbench -exp match

## scrape: the /metrics contract gate — boots the real daemon, drives
## traffic, scrapes GET /metrics and fails on unparseable exposition or
## missing series. CI runs this against every change.
scrape:
	$(GO) test -count 1 -run 'TestMetricsScrapeEndToEnd' ./cmd/erserve

## bench-obs: instrumented vs bare serving benchmark pair — prices the
## observability layer (histograms + pool counters) on the query path
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkServeQuery(Bare)?$$/' -benchtime 2000x -count 3 ./internal/online

## bench-shard: the bulk-load path at 1 and 2 shards (10 000 product
## entities through InsertBatch; ns/entity and B/entity are flat in the
## collection size, so a 10x jump is a quadratic term come back), its
## dense twin (2 000 entities at 300-d: embedding-bound, so ns/entity
## follows the cores and B/entity is the same at both shard counts) and
## scatter-gather query latency across shard counts
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkBulkLoad(Dense)?$$' -benchtime 3x ./internal/online
	$(GO) test -run '^$$' -bench 'BenchmarkShardedQuery$$' -benchtime 1s ./internal/online

## bench-ann: IncFlat vs IncHNSW scaling table (build time, query p50,
## recall@10 against the flat oracle); the acceptance gate is >= 5x
## query p50 at 100k entities with recall@10 >= 0.95
bench-ann:
	$(GO) run ./cmd/erbench -exp ann

## bench-ann-build: HNSW graph construction alone — 2 000 x 300-d product
## embeddings, the corpus shape of the repository benchmark's hnsw_point
## workload, with allocation counts: 0.65-0.8 s, 73 353 allocations and
## 11.6 MB per build on the 2.1 GHz reference VM with the AVX2 distance
## kernel, 1.4-1.7 s under -tags purego (and before the kernel)
bench-ann-build:
	$(GO) test -run '^$$' -bench 'BenchmarkIncHNSWBuild$$' -benchtime 3x -count 3 ./internal/knn

## bench-lsm: all-in-memory vs disk-backed resolver over the same
## workload (ingest, query p50, index heap after GC, segment count and
## on-disk bytes); the run fails unless every answer is byte-identical
## and the dataset is >= 4x the memtable cap
bench-lsm:
	$(GO) run ./cmd/erbench -exp lsm

## bench-repl: read throughput through the proxy at 1, 2 and 4 replicas
## plus steady-state replication lag — the scale-out case for
## WAL-shipping read replicas
bench-repl:
	$(GO) run ./cmd/erbench -exp repl

## bench-bulk: NDJSON bulk-resolve stream end to end — rows/s plus peak
## and settled heap deltas while a generated feed flows through POST
## /v1/resolve/stream; fails on any sampled divergence from the batch
## endpoint
bench-bulk:
	$(GO) run ./cmd/erbench -exp bulk
