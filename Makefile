# Tier 1: the fast correctness bar (also what CI gates on).
# Tier 2: race detection plus a gateway load smoke under deliberate
#         overload — must report zero lost/corrupted and nonzero
#         rejections.

GO ?= go

.PHONY: all tier1 tier2 build test vet race smoke repair-smoke examples-smoke sim-golden obs-smoke crash-smoke twin-smoke cluster-smoke cluster-crash fuzz-smoke bench bench-diff clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

tier1: build test

# vet also requires gofmt-clean sources across the tree (the benchmark
# module included); gofmt -l lists any file that needs formatting. It
# then runs the surface check: an exported name under internal/ that no
# non-test file uses, and that surface_test.go does not allowlist with
# a reason, fails it.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) test -run TestExportedSurfaceHasProductionCallers -count 1 .

race:
	$(GO) test -race ./...

# 32 closed-loop clients against a deliberately small staging tier:
# exercises admission control (429s), the flush scheduler, and the
# byte-exact verification pass. silica-load exits nonzero on any lost
# or corrupted object.
smoke:
	$(GO) run ./cmd/silica-load -clients 32 -ops 6 -object-bytes 1024 \
		-staging-cap 40000 -retries 20

# Self-healing smoke: fail every position of a completed platter-set
# in turn under concurrent readers and a writer; the background
# scrubber must detect each, the rebuilder must write a verified
# replacement, every committed object must read back byte-exact, and
# the set must end at full redundancy.
repair-smoke:
	$(GO) test ./internal/repair -run '^TestEverySetMemberSurvivesFailAndRebuild$$' -v -timeout 300s

# Golden stdout: the four examples at default flags and eight seeded
# simulator experiments must print exactly what testdata/golden/
# records (the examples, fig5a, fig8, tape and the trace replay
# captured on the commit before the core, decode and deployment
# packages were deleted; fig6, fig7a-c and ablations, which read drive
# verify accounting and shuttle stats, on the commit before the
# library's write-path and battery modes were deleted). What varies by design is masked
# on both sides before the diff: the numbers that depend on crypto/rand
# key material through the noisy channel (quickstart's verify margin;
# in failure-recovery which platter holds archive-0 — about one run in
# 150 its first burn fails verification and it lands on the next id —
# and the sector-recovery count), and silica-sim's wall-clock
# `[x took …]` lines. A diff here means simulator or example output changed; never
# regenerate a golden to make it pass.
GOLDEN_DIR := testdata/golden
GOLDEN_OUT := /tmp/silica-golden
GOLDEN_MASK := -e 's/verify margin [0-9.]+/verify margin X.XX/' \
	-e 's/^platter [0-9]+ failed/platter N failed/' \
	-e 's/[0-9]+ sector recoveries/N sector recoveries/'
examples-smoke:
	$(GO) build -o $(GOLDEN_OUT)/ ./examples/...
	for e in quickstart datacenter-replay failure-recovery layout-planner; do \
	  $(GOLDEN_OUT)/$$e > $(GOLDEN_OUT)/$$e.raw || exit 1; \
	  sed -E $(GOLDEN_MASK) $(GOLDEN_DIR)/$$e.txt > $(GOLDEN_OUT)/$$e.want; \
	  sed -E $(GOLDEN_MASK) $(GOLDEN_OUT)/$$e.raw \
	    | diff -u $(GOLDEN_OUT)/$$e.want - || { echo "examples/$$e: stdout differs from its golden"; exit 1; }; \
	done

sim-golden:
	$(GO) build -o $(GOLDEN_OUT)/ ./cmd/silica-sim
	for x in fig5a fig6 fig7a fig7b fig7c fig8 ablations tape; do \
	  $(GOLDEN_OUT)/silica-sim -quick -seed 1 -experiment $$x > $(GOLDEN_OUT)/sim-$$x.raw || exit 1; \
	  grep -v '^\[.* took .*\]$$' $(GOLDEN_OUT)/sim-$$x.raw \
	    | diff -u $(GOLDEN_DIR)/sim-$$x.txt - || { echo "silica-sim $$x: stdout differs from its golden"; exit 1; }; \
	done
	# Trace replay: the generated file's sha256, the generator's summary
	# line, and the replay of that file through the library simulator.
	$(GOLDEN_OUT)/silica-sim -generate iops -hours 1 -platters 200 -seed 1 \
	  > $(GOLDEN_OUT)/trace.jsonl 2> $(GOLDEN_OUT)/trace.log
	{ sha256sum < $(GOLDEN_OUT)/trace.jsonl; cat $(GOLDEN_OUT)/trace.log; \
	  $(GOLDEN_OUT)/silica-sim -trace $(GOLDEN_OUT)/trace.jsonl -platters 200; } \
	  | diff -u $(GOLDEN_DIR)/sim-trace.txt - || { echo "silica-sim -trace: output differs from its golden"; exit 1; }

tier2: vet race smoke repair-smoke examples-smoke sim-golden

# Observability smoke: start a real silicad and a real three-library
# router, walk the same object tour (PUT / GET / flush / DELETE /
# GET→404) over both and require identical statuses, content types and
# bodies — the two daemons mount one object surface; the one
# legitimate difference, normalised before the diff, is that a library
# says why a deleted object is gone ("all versions deleted") while the
# router answers from its own directory. Then scrape both
# /metrics through silicactl and check every subsystem's families
# (gateway, staging, codec, flush, repair and the service's glass books
# on the library; the routed-op
# counters on the router) under one Content-Type, and run a rebalance
# through silicactl so the client's JSON call path meets a real router.
# Last, a -peers router over the library daemon must show the library's
# row with the tour's flush counted: that row is read off the library's
# /metrics, so this drives the remote-member scrape against a real daemon.
# silicactl top names each library's backend from silica_backend_info
# alone: direct on the tour's library, twin policy=ns on a fourth daemon.
OBS_URL := http://127.0.0.1:7171
OBS_ROUTER_URL := http://127.0.0.1:7172
OBS_PEERS_URL := http://127.0.0.1:7173
OBS_TWIN_URL := http://127.0.0.1:7174
OBS_DIR := /tmp/silica-obs-smoke
obs-smoke:
	$(GO) build -o $(OBS_DIR)/ ./cmd/silicad ./cmd/silicactl
	$(OBS_DIR)/silicad -listen 127.0.0.1:7171 & SILICAD_PID=$$!; \
	  $(OBS_DIR)/silicad -listen 127.0.0.1:7172 -cluster 3 & ROUTER_PID=$$!; \
	  $(OBS_DIR)/silicad -listen 127.0.0.1:7173 -peers $(OBS_URL) & PEERS_PID=$$!; \
	  $(OBS_DIR)/silicad -listen 127.0.0.1:7174 -backend twin -policy ns & TWIN_PID=$$!; \
	  trap "kill $$SILICAD_PID $$ROUTER_PID $$PEERS_PID $$TWIN_PID 2>/dev/null" EXIT; \
	  for url in $(OBS_URL) $(OBS_ROUTER_URL) $(OBS_PEERS_URL) $(OBS_TWIN_URL); do \
	    for i in $$(seq 1 50); do \
	      curl -sf $$url/v1/healthz >/dev/null && break; sleep 0.1; \
	    done; \
	  done; \
	  tour() { \
	    for step in "PUT /v1/objects/acct/obj" "GET /v1/objects/acct/obj" "POST /v1/flush" \
	                "DELETE /v1/objects/acct/obj" "GET /v1/objects/acct/obj" "GET /v1/objects/acct/never"; do \
	      set -- $$step; body=""; [ $$1 = PUT ] && body="--data-binary smoke"; \
	      echo "$$1 $$2"; \
	      curl -s -X $$1 $$body -w '\n%{http_code} %{content_type}\n' $$url$$2; \
	    done; \
	  }; \
	  url=$(OBS_URL); tour > $(OBS_DIR)/tour-library.txt; \
	  url=$(OBS_ROUTER_URL); tour > $(OBS_DIR)/tour-router.txt; \
	  grep -q '^404 application/json' $(OBS_DIR)/tour-router.txt \
	    || { echo "object tour never reached the 404"; cat $(OBS_DIR)/tour-router.txt; exit 1; }; \
	  sed -i 's/ (all versions deleted)//' $(OBS_DIR)/tour-library.txt; \
	  diff $(OBS_DIR)/tour-library.txt $(OBS_DIR)/tour-router.txt \
	    || { echo "library and router answer the object tour differently"; exit 1; }; \
	  $(OBS_DIR)/silicactl metrics -url $(OBS_URL) > $(OBS_DIR)/metrics.txt; \
	  $(OBS_DIR)/silicactl top -url $(OBS_URL) -n 1 | tee $(OBS_DIR)/top.txt; \
	  grep -q '^backend  direct ' $(OBS_DIR)/top.txt \
	    || { echo "silicactl top names no direct backend"; exit 1; }; \
	  $(OBS_DIR)/silicactl top -url $(OBS_TWIN_URL) -n 1 | tee $(OBS_DIR)/top-twin.txt; \
	  grep -q '^backend  twin policy=ns ' $(OBS_DIR)/top-twin.txt \
	    || { echo "silicactl top names no ns twin"; exit 1; }; \
	  for fam in silica_gateway_queue_depth silica_gateway_request_seconds \
	             silica_staging_used_bytes silica_codec_jobs_total \
	             silica_codec_encode_seconds silica_codec_decode_seconds \
	             silica_codec_sectors_total silica_codec_sectors_per_second \
	             silica_repair_scrubs_total silica_flush_phase_seconds \
	             silica_service_platters_total silica_service_sectors_written_total \
	             silica_service_stored_bytes_total silica_service_verify_sector_failures_total \
	             silica_service_min_margin silica_backend_info; do \
	    grep -q "^# TYPE $$fam " $(OBS_DIR)/metrics.txt \
	      || { echo "missing metric family: $$fam"; exit 1; }; \
	  done; \
	  $(OBS_DIR)/silicactl metrics -url $(OBS_ROUTER_URL) > $(OBS_DIR)/metrics-router.txt; \
	  grep -q "^# TYPE silica_cluster_routed_total " $(OBS_DIR)/metrics-router.txt \
	    || { echo "missing metric family: silica_cluster_routed_total"; exit 1; }; \
	  for url in $(OBS_URL) $(OBS_ROUTER_URL); do \
	    ct=$$(curl -s -o /dev/null -w '%{content_type}' $$url/metrics); \
	    [ "$$ct" = "text/plain; version=0.0.4; charset=utf-8" ] \
	      || { echo "$$url/metrics Content-Type: $$ct"; exit 1; }; \
	  done; \
	  $(OBS_DIR)/silicactl cluster -url $(OBS_ROUTER_URL) -rebalance -workers 2 || exit 1; \
	  $(OBS_DIR)/silicactl cluster -url $(OBS_PEERS_URL) > $(OBS_DIR)/cluster-peers.txt || exit 1; \
	  cat $(OBS_DIR)/cluster-peers.txt; \
	  awk -v lib=$(OBS_URL) '$$1 == lib && $$NF >= 1 { ok = 1 } END { exit !ok }' $(OBS_DIR)/cluster-peers.txt \
	    || { echo "-peers router shows no flush on $(OBS_URL)"; exit 1; }; \
	  echo "obs-smoke: library and routers agree; all metric families present"

# Crash-recovery smoke: the durability contract under kill -9. Runs
# the in-process kill-point test (freeze the WAL mid-flush under
# concurrent load, tear the tail, recover byte-exact) and the
# subprocess test (build silicad, kill it at a platter publication via
# an armed fault rule, restart from -persist-dir, audit over HTTP).
crash-smoke:
	SILICA_CRASH_SMOKE=1 $(GO) test ./internal/gateway \
		-run 'TestCrashMidFlushRecovery|TestCrashSmokeSilicad' -v -timeout 600s

# Digital-twin smoke: drive Zipf-skewed load through an in-process
# gateway whose media touches are charged by the library twin, print
# the queue/mechanical/codec latency breakdown, and run the e2e test
# (byte identity vs direct under two policies, each fixed when its
# gateway is built; nonzero mechanical histograms; silica_backend_info
# on /metrics).
twin-smoke:
	$(GO) run ./cmd/silica-load -clients 8 -ops 24 -read-frac 0.6 \
		-object-bytes 2048 -platter-tracks 9 -zipf 1.2 \
		-backend twin -policy silica -twin-speedup 20000
	$(GO) test ./internal/gateway -run 'TestTwinE2E' -v -timeout 300s

# Multi-library smoke: destroy one entire library of three under
# retrying load, rebuild a fresh member from the cross-library
# redundancy copies, and require the byte-exact audit to find every
# acknowledged object intact; then kill -9 the router at an armed
# placement under one writer and under eight racing it, and require
# the successor to serve every acked put byte-exact and take fresh
# writes.
cluster-smoke:
	$(GO) test ./internal/cluster -run '^(TestClusterKillLibraryE2E|TestClusterRouterCrashRecovers)$$' -v -timeout 300s

# Router crash-recovery smoke: the cluster analogue of crash-smoke.
# In-process drills (armed kill points freezing the router log on a
# placement and on a delete, successor recovery, seed-mismatch
# refusal) plus the subprocess drill (silicad -cluster killed at a
# placement append via a fault rule, exit 137, restart from
# -persist-dir, byte-exact HTTP audit).
cluster-crash:
	SILICA_CRASH_SMOKE=1 $(GO) test ./internal/cluster \
		-run 'TestClusterRouter|TestClusterRestart|TestClusterSeedMismatch|TestCrashSmokeClusterRouter' \
		-v -timeout 600s

# Decoder fuzz smoke: every persist decoder that reads bytes it did
# not write (WAL scan under both record tables, both snapshot formats,
# the platter blob) runs its native fuzz target for ten seconds, seeded
# from the golden fixtures; then the voxel demapper's table lookup on
# arbitrary float64 bit patterns, the sector codec's encode → corrupt →
# tiered decode round trip (encode identical to the bit-serial
# reference, no CRC false accept, a clean read in zero iterations), and
# the two text parsers that read bytes arriving over HTTP (a /metrics
# scrape, a POST /v1/faults rule). `go test -fuzz` takes one target per
# run.
fuzz-smoke:
	for t in FuzzScanWAL FuzzDecodeSnapshot FuzzDecodeRouterSnapshot FuzzDecodeBlob; do \
		$(GO) test ./internal/persist -run '^$$' -fuzz "^$$t\$$" -fuzztime 10s || exit 1; \
	done
	$(GO) test ./internal/voxel -run '^$$' -fuzz '^FuzzDemapLLRs$$' -fuzztime 10s
	$(GO) test ./internal/ldpc -run '^$$' -fuzz '^FuzzSectorRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzParseProm$$' -fuzztime 10s
	$(GO) test ./internal/faults -run '^$$' -fuzz '^FuzzParseRule$$' -fuzztime 10s

# Codec benchmarks: GF(256) kernels, the word-packed per-sector
# encode/decode (hard-decision fast path and the forced-BP soft path),
# the sector read at the channel's operating point (whole and per
# stage: transmit / demap / ldpc), the parallel burn/flush paths at
# workers=1, 4, and GOMAXPROCS, the flush of one benchmark ingest round
# (platters and sector decodes per op), and the recovery paths (a
# degraded Get and a platter rebuild, with sector decodes per op).
# Raw `go test -json` events land in BENCH_codec.json for trend
# tracking; the burn/flush rows carry `workers` and `MB/s/core` metrics
# so runs on different core counts compare per-core scaling directly.
BENCH_PATTERN := EncodeSector|DecodeSector|SectorRead|GF256MulAddVec|BurnPlatter|FlushParallel|IngestRound|DegradedGet|RebuildPlatter|TwinRead
BENCH_PKGS := ./internal/gf256/ ./internal/ldpc/ ./internal/voxel/ ./internal/service/ ./internal/backend/
bench:
	$(GO) test -json -run '^$$' \
		-bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		> BENCH_codec.json
	@grep -o '"Output":"Benchmark[^"]*' BENCH_codec.json \
		| sed -e 's/"Output":"//' -e 's/\\n$$//' -e 's/\\t/\t/g'

# Benchmark trend check: capture a fresh run next to the committed
# baseline and print per-benchmark ns/op and MB/s movement. Report-only
# (CI runs it continue-on-error): refresh BENCH_codec.json via `make
# bench` when a shift is real and intended.
BENCH_NEW ?= /tmp/BENCH_new.json
bench-diff:
	$(GO) test -json -run '^$$' \
		-bench '$(BENCH_PATTERN)' -benchmem $(BENCH_PKGS) \
		> $(BENCH_NEW)
	$(GO) run ./scripts/benchdiff BENCH_codec.json $(BENCH_NEW)

clean:
	$(GO) clean ./...
