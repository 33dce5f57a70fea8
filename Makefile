# Convenience targets for the reproduction artifact.
.PHONY: all test race bench bench-pr4 bench-pr6 bench-pr7 bench-pr8 bench-pr9 bench-all fuzz-smoke figure1 impossibility outputs metrics-smoke serve-smoke load-smoke fabric-smoke socket-smoke profile-feed
all: test
test:
	go build ./... && go vet ./... && go test ./...
race:
	go test -race ./internal/net ./internal/nettcp ./internal/sharedmem ./internal/sched ./internal/conformance ./internal/sweep ./internal/explore ./internal/fabric ./internal/serve
stress:
	go test -race -count=3 -run 'Reentrant|Concurrent|Stress|Stop|Reorder' ./internal/net

# Benchmark artifacts follow one pattern: run a benchmark selection, tee
# the raw transcript under /tmp, then distill it into a JSON artifact with
# an awk program held in a make variable. bench-json is the shared distill
# step: $(call bench-json,RAW-FILE(S),AWK-VARIABLE-NAME,OUT.json) — the awk
# program is passed by variable *name* (its text contains commas, which
# $(call) would split on).
define bench-json
	awk $($(2)) $(1) > $(3)
	cat $(3)
endef

# bench: the PR 3 headline comparison — one streaming pass of the online
# checkers versus checkpointed re-runs of the batch reference predicates on
# the same 100k-step trace — recorded as BENCH_PR3.json. -benchtime 1x
# because one batch iteration already takes minutes (the batch causal check
# is quadratic; that is the point).
AWK_PR3 = '/^BenchmarkSpecOnline/ { online=$$3; steps=$$5 } \
  /^BenchmarkSpecBatch/ { batch=$$3 } \
  END { if (!online || !batch) exit 1; \
    printf "{\n  \"benchmark\": \"online spec checkers vs repeated batch checking\",\n  \"trace_steps\": %.0f,\n  \"specs\": [\"FIFO-Order\", \"Causal-Order\"],\n  \"batch_checkpoints\": 4,\n  \"online_ns_per_op\": %.0f,\n  \"batch_ns_per_op\": %.0f,\n  \"speedup\": %.1f\n}\n", steps, online, batch, batch/online }'
bench:
	go test -run '^$$' -bench 'BenchmarkSpec(Online|Batch)$$' -benchtime 1x ./internal/spec | tee /tmp/bench_pr3.txt
	$(call bench-json,/tmp/bench_pr3.txt,AWK_PR3,BENCH_PR3.json)

# bench-pr4: the PR 4 headline numbers — sweep wall-clock at 1 vs 4
# workers (the CPU-bound E1 grid scales with cores; the latency-bound
# conformance corpus overlaps timer waits and speeds up even on one core)
# and the hot-path allocation wins (VC encode/decode, trace append) —
# recorded as BENCH_PR4.json with the host's GOMAXPROCS for context.
AWK_PR4 = '/^BenchmarkSweepE1\/workers=1/ { e1w1=$$3 } \
  /^BenchmarkSweepE1\/workers=4/ { e1w4=$$3 } \
  /^BenchmarkSweepConformance\/workers=1/ { cw1=$$3 } \
  /^BenchmarkSweepConformance\/workers=4/ { cw4=$$3 } \
  /^BenchmarkVCEncodeDecode\/old/ { vcold=$$3; vcoldalloc=$$7 } \
  /^BenchmarkVCEncodeDecode\/new/ { vcnew=$$3; vcnewalloc=$$7 } \
  /^BenchmarkTraceAppend\/naive/ { trn=$$3; trnb=$$5 } \
  /^BenchmarkTraceAppend\/chunked/ { trc=$$3; trcb=$$5 } \
  END { if (!e1w1 || !e1w4 || !cw1 || !cw4 || !vcold || !vcnew || !trn || !trc) exit 1; \
    e1s=e1w1/e1w4; cs=cw1/cw4; head=(cs>e1s)?cs:e1s; \
    printf "{\n  \"benchmark\": \"parallel sweep engine and hot-path allocation overhaul\",\n  \"gomaxprocs\": %d,\n  \"headline_sweep_speedup_4v1\": %.2f,\n  \"sweep_e1\": {\n    \"workers1_ns_per_op\": %.0f,\n    \"workers4_ns_per_op\": %.0f,\n    \"speedup_4v1\": %.2f\n  },\n  \"sweep_conformance\": {\n    \"workers1_ns_per_op\": %.0f,\n    \"workers4_ns_per_op\": %.0f,\n    \"speedup_4v1\": %.2f\n  },\n  \"vc_encode_decode\": {\n    \"old_ns_per_op\": %.0f,\n    \"new_ns_per_op\": %.0f,\n    \"old_allocs_per_op\": %.0f,\n    \"new_allocs_per_op\": %.0f\n  },\n  \"trace_append_100k\": {\n    \"naive_ns_per_op\": %.0f,\n    \"chunked_ns_per_op\": %.0f,\n    \"naive_bytes_per_op\": %.0f,\n    \"chunked_bytes_per_op\": %.0f\n  }\n}\n", \
      gomaxprocs, head, e1w1, e1w4, e1s, cw1, cw4, cs, vcold, vcnew, vcoldalloc, vcnewalloc, trn, trc, trnb, trcb }'
bench-pr4:
	go test -run '^$$' -bench 'BenchmarkSweep(E1|Conformance)$$' -benchtime 5x ./internal/sweep | tee /tmp/bench_pr4.txt
	go test -run '^$$' -bench 'BenchmarkVCEncodeDecode$$' -benchmem ./internal/vc | tee -a /tmp/bench_pr4.txt
	go test -run '^$$' -bench 'BenchmarkTraceAppend$$' -benchmem ./internal/model | tee -a /tmp/bench_pr4.txt
	awk -v gomaxprocs=$$(nproc) $(AWK_PR4) /tmp/bench_pr4.txt > BENCH_PR4.json
	cat BENCH_PR4.json
bench-all:
	go test -bench=. -benchmem ./...
figure1:
	go run ./examples/figure1
impossibility:
	go run ./cmd/impossibility -all -k 2 -v
# metrics-smoke: the observability layer end to end — run the pipeline with
# -metrics and -events, check the phase spans appear and the event log is
# valid JSONL (one object per line, each with ts and event keys).
metrics-smoke:
	go run ./cmd/impossibility -all -k 2 -metrics -events /tmp/nobroadcast-events.jsonl > /tmp/nobroadcast-metrics.txt
	grep -q 'pipeline.adversary' /tmp/nobroadcast-metrics.txt
	grep -q 'pipeline.nsolo-check' /tmp/nobroadcast-metrics.txt
	grep -q 'pipeline.restriction' /tmp/nobroadcast-metrics.txt
	grep -q 'pipeline.renaming' /tmp/nobroadcast-metrics.txt
	grep -q 'pipeline.replay' /tmp/nobroadcast-metrics.txt
	grep -q 'sched.steps' /tmp/nobroadcast-metrics.txt
	awk 'NF && ($$0 !~ /^\{"ts":".*","event":".*\}$$/) { bad=1 } END { exit bad }' /tmp/nobroadcast-events.jsonl
	@echo "metrics smoke test passed"
# serve-smoke: the daemon end to end — start ksasimd, run the same job
# twice, require the repeat to be a cache hit (X-Cache header and the
# serve.cache_hits counter on /vars), then SIGTERM and require a clean
# drain: exit code 0 and the drain banner in the log.
serve-smoke:
	go build -o /tmp/ksasimd ./cmd/ksasimd
	@set -e; \
	/tmp/ksasimd -addr 127.0.0.1:8321 > /tmp/ksasimd.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do curl -sf http://127.0.0.1:8321/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -sf -XPOST http://127.0.0.1:8321/v1/run -d '{"candidate":"fifo","n":3}' >/dev/null; \
	curl -sf -XPOST http://127.0.0.1:8321/v1/run -d '{"candidate":"fifo","n":3}' -D /tmp/ksasimd-h2.txt >/dev/null; \
	grep -qi 'x-cache: hit' /tmp/ksasimd-h2.txt; \
	curl -sf http://127.0.0.1:8321/vars | grep -q '"serve.cache_hits":1'; \
	kill -TERM $$pid; \
	rc=0; wait $$pid || rc=$$?; \
	trap - EXIT; \
	test $$rc -eq 0; \
	grep -q 'drained cleanly' /tmp/ksasimd.log; \
	echo "serve smoke test passed"
# load-smoke: the serving path under generated load — start ksasimd with
# tracing and pprof on, point ksasimload at it for a short closed-loop
# burst, and require nonzero throughput plus a parseable JSON report and
# a clean daemon drain.
load-smoke:
	go build -o /tmp/ksasimd ./cmd/ksasimd
	go build -o /tmp/ksasimload ./cmd/ksasimload
	@set -e; \
	/tmp/ksasimd -addr 127.0.0.1:8322 -trace -pprof > /tmp/ksasimd-load.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do curl -sf http://127.0.0.1:8322/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	/tmp/ksasimload -addr http://127.0.0.1:8322 -requests 200 -concurrency 4 -duration 60s -universe 16 -json /tmp/ksasimload-smoke.json; \
	curl -sf http://127.0.0.1:8322/debug/runtime | grep -q goroutines; \
	kill -TERM $$pid; \
	rc=0; wait $$pid || rc=$$?; \
	trap - EXIT; \
	test $$rc -eq 0; \
	grep -q 'drained cleanly' /tmp/ksasimd-load.log; \
	python3 -c 'import json; r = json.load(open("/tmp/ksasimload-smoke.json")); assert r["throughput_rps"] > 0, r; assert r["requests"] == 200, r; assert r["latency_us"]["p99"] >= r["latency_us"]["p50"] > 0, r'; \
	echo "load smoke test passed"

# bench-pr6: the PR 6 headline artifact — a closed-loop ksasimload run
# against a local daemon, recorded as BENCH_PR6.json (latency quantiles,
# throughput, cache hit rate, daemon counter deltas). The load generator
# writes the JSON itself; no awk distillation needed.
bench-pr6:
	go build -o /tmp/ksasimd ./cmd/ksasimd
	go build -o /tmp/ksasimload ./cmd/ksasimload
	@set -e; \
	/tmp/ksasimd -addr 127.0.0.1:8323 > /tmp/ksasimd-bench.log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do curl -sf http://127.0.0.1:8323/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	/tmp/ksasimload -addr http://127.0.0.1:8323 -duration 10s -concurrency 8 -universe 64 -json BENCH_PR6.json; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT
	cat BENCH_PR6.json
# bench-pr7: the PR 7 headline artifact — the binary ksatrace wire format
# against JSONL, as BENCH_PR7.json. Two comparisons over the same
# 100k-step trace: the end-to-end serving path (decode + online checkers,
# what /v1/check does per upload) and pure decode (where the block format
# and string interning pay off). The awk program scans for unit tokens
# (ns/op, allocs/op, trace-steps) instead of fixed columns, so the
# distill survives benchmark-output column drift.
AWK_PR7 = '/^Benchmark(StreamCheck|WireDecode)\// { \
    ns=0; al=0; st=0; \
    for (i=2; i<=NF; i++) { \
      if ($$i == "ns/op") ns=$$(i-1); \
      if ($$i == "allocs/op") al=$$(i-1); \
      if ($$i == "trace-steps") st=$$(i-1); \
    } \
    if ($$1 ~ /^BenchmarkStreamCheck\/jsonl/)  { cjns=ns; steps=st } \
    if ($$1 ~ /^BenchmarkStreamCheck\/binary/) { cbns=ns } \
    if ($$1 ~ /^BenchmarkWireDecode\/jsonl/)   { djns=ns; djal=al } \
    if ($$1 ~ /^BenchmarkWireDecode\/binary/)  { dbns=ns; dbal=al } \
  } \
  END { if (!cjns || !cbns || !djns || !dbns || !steps) exit 1; \
    printf "{\n  \"benchmark\": \"trace wire format v1: binary ksatrace vs JSONL\",\n  \"trace_steps\": %.0f,\n  \"stream_check\": {\n    \"jsonl_ns_per_op\": %.0f,\n    \"binary_ns_per_op\": %.0f,\n    \"jsonl_steps_per_sec\": %.0f,\n    \"binary_steps_per_sec\": %.0f,\n    \"binary_speedup\": %.2f\n  },\n  \"decode_only\": {\n    \"jsonl_ns_per_op\": %.0f,\n    \"binary_ns_per_op\": %.0f,\n    \"jsonl_steps_per_sec\": %.0f,\n    \"binary_steps_per_sec\": %.0f,\n    \"binary_speedup\": %.2f,\n    \"jsonl_allocs_per_step\": %.3f,\n    \"binary_allocs_per_step\": %.3f\n  }\n}\n", \
      steps, cjns, cbns, steps*1e9/cjns, steps*1e9/cbns, cjns/cbns, \
      djns, dbns, steps*1e9/djns, steps*1e9/dbns, djns/dbns, \
      djal/steps, dbal/steps }'
bench-pr7:
	go test -run '^$$' -bench 'BenchmarkStreamCheck$$' -benchmem ./internal/spec | tee /tmp/bench_pr7.txt
	go test -run '^$$' -bench 'BenchmarkWireDecode$$' -benchmem ./internal/trace | tee -a /tmp/bench_pr7.txt
	$(call bench-json,/tmp/bench_pr7.txt,AWK_PR7,BENCH_PR7.json)

# bench-pr8: the PR 8 headline artifact — the violation-hunting fleet on
# the kbo candidate (the abstraction the paper refutes), recorded as
# BENCH_PR8.json: schedules/sec through the exploration path, violations
# found, and mean minimized-prefix length, for both the random and the
# PCT sampler. Everything but the schedules/sec figure is deterministic
# in the seeds below.
AWK_PR8 = '/: explore / { strat=""; \
    for (i=1; i<=NF; i++) if ($$i ~ /^strategy=/) { s=$$i; sub("strategy=","",s); strat=s; order[++nstrat]=s } } \
  /schedules violate/ { split($$1, a, "/"); viol[strat]=a[1]; scheds[strat]=a[2]; \
    for (i=2; i<=NF; i++) if ($$i == "schedules/sec)") { r=$$(i-1); sub(/\(/,"",r); rate[strat]=r } } \
  /minimized [0-9]+ -> [0-9]+ decisions/ { full[strat]+=$$2; minsum[strat]+=$$4; nmin[strat]++ } \
  END { if (nstrat != 2) exit 1; \
    printf "{\n  \"benchmark\": \"schedule exploration: violation hunting and delta-debugging on kbo n=4 k=2\",\n  \"runs\": {\n"; \
    for (j=1; j<=nstrat; j++) { s=order[j]; \
      if (!scheds[s] || !viol[s] || !nmin[s]) exit 1; \
      printf "    \"%s\": {\n      \"schedules\": %d,\n      \"violations\": %d,\n      \"hit_rate\": %.3f,\n      \"schedules_per_sec\": %d,\n      \"findings_minimized\": %d,\n      \"mean_schedule_len\": %.1f,\n      \"mean_minimized_len\": %.1f\n    }%s\n", \
        s, scheds[s], viol[s], viol[s]/scheds[s], rate[s], nmin[s], full[s]/nmin[s], minsum[s]/nmin[s], (j<nstrat)?",":""; } \
    printf "  }\n}\n" }'
bench-pr8:
	go build -o /tmp/ksasim ./cmd/ksasim
	/tmp/ksasim -b kbo -n 4 -k 2 -explore -strategy random -schedules 400 -seed 1 -minimize 3 | tee /tmp/bench_pr8.txt
	/tmp/ksasim -b kbo -n 4 -k 2 -explore -strategy pct -depth 3 -schedules 400 -seed 1 -minimize 3 | tee -a /tmp/bench_pr8.txt
	$(call bench-json,/tmp/bench_pr8.txt,AWK_PR8,BENCH_PR8.json)

# bench-pr9: the PR 9 headline artifact — aggregate conformance-corpus
# throughput on a single daemon vs a coordinator sharding the same grid
# over 2 and 4 in-process worker daemons, as BENCH_PR9.json. The corpus
# is latency-bound (timer waits dominate each cell), so the fabric's
# overlap shows near-linear speedup even on one core; fresh seeds per
# iteration keep every cache out of the measurement.
AWK_PR9 = '/^BenchmarkFabricCorpus\/single/ { s1=$$3 } \
  /^BenchmarkFabricCorpus\/workers=2/ { w2=$$3 } \
  /^BenchmarkFabricCorpus\/workers=4/ { w4=$$3 } \
  END { if (!s1 || !w2 || !w4) exit 1; \
    printf "{\n  \"benchmark\": \"distributed sweep fabric: conformance corpus sharded over worker daemons\",\n  \"gomaxprocs\": %d,\n  \"workload\": \"full conformance corpus (30 cells), merged byte-identical to single-host\",\n  \"single_daemon_ns_per_op\": %.0f,\n  \"fabric_2workers_ns_per_op\": %.0f,\n  \"fabric_4workers_ns_per_op\": %.0f,\n  \"speedup_2v1\": %.2f,\n  \"speedup_4v1\": %.2f\n}\n", gomaxprocs, s1, w2, w4, s1/w2, s1/w4 }'
bench-pr9:
	go test -run '^$$' -bench 'BenchmarkFabricCorpus$$' -benchtime 5x ./internal/serve | tee /tmp/bench_pr9.txt
	awk -v gomaxprocs=$$(nproc) $(AWK_PR9) /tmp/bench_pr9.txt > BENCH_PR9.json
	cat BENCH_PR9.json

# fabric-smoke: the cluster path end to end, twice. First in-process — a
# coordinator with two worker daemons (one an injected straggler) runs
# one corpus sweep; the test asserts the merged body is byte-identical to
# a single-host run and that work-stealing engaged (fabric.steals > 0).
# Then with real OS processes: two ksasimd workers and a coordinator
# daemon on loopback TCP; the coordinator's sharded corpus body must be
# byte-identical to a single worker's, and a worker must execute a
# tcp-runtime job (a nettcp socket cluster inside the worker process).
fabric-smoke:
	go test -run 'TestFabricSmoke$$' -count=1 -v ./internal/serve
	go build -o /tmp/ksasimd ./cmd/ksasimd
	@set -e; \
	/tmp/ksasimd -addr 127.0.0.1:8331 > /tmp/ksasimd-fw1.log 2>&1 & w1=$$!; \
	/tmp/ksasimd -addr 127.0.0.1:8332 > /tmp/ksasimd-fw2.log 2>&1 & w2=$$!; \
	/tmp/ksasimd -addr 127.0.0.1:8330 -coordinator http://127.0.0.1:8331,http://127.0.0.1:8332 > /tmp/ksasimd-fco.log 2>&1 & co=$$!; \
	trap 'kill $$w1 $$w2 $$co 2>/dev/null || true' EXIT; \
	for p in 8330 8331 8332; do \
	  for i in $$(seq 1 100); do curl -sf http://127.0.0.1:$$p/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	done; \
	curl -sf -XPOST http://127.0.0.1:8331/v1/corpus -d '{"seed":23}' > /tmp/fabric-single.json; \
	curl -sf -XPOST http://127.0.0.1:8330/v1/corpus -d '{"seed":23}' > /tmp/fabric-fleet.json; \
	cmp /tmp/fabric-single.json /tmp/fabric-fleet.json; \
	curl -sf -XPOST http://127.0.0.1:8332/v1/run \
	  -d '{"candidate":"send-to-all","runtime":"tcp","n":3,"workload":{"messages":6}}' \
	  | grep -q '"complete":true'; \
	kill -TERM $$w1 $$w2 $$co; \
	rc=0; wait $$w1 || rc=$$?; test $$rc -eq 0; \
	rc=0; wait $$w2 || rc=$$?; test $$rc -eq 0; \
	rc=0; wait $$co || rc=$$?; test $$rc -eq 0; \
	trap - EXIT; \
	echo "fabric smoke test passed (in-process + process workers)"

# socket-smoke: the TCP socket transport end to end with real OS
# processes — ksasim re-execs itself once per CAMP node (-node), the
# harness merges the per-node .ktr streams, and the verdict must agree
# with the deterministic runtime. Runs twice: direct unicast with the
# oracle round-trip (first-k), and rebroadcast flood mode.
socket-smoke:
	go build -o /tmp/ksasim ./cmd/ksasim
	/tmp/ksasim -sockets -b first-k -n 3 -k 2 -seed 42 | tee /tmp/socket-smoke.txt
	/tmp/ksasim -sockets -b reliable -n 3 -k 1 -seed 7 -rebroadcast | tee -a /tmp/socket-smoke.txt
	grep -c 'verdicts-agree=true delivery-sets-agree=true' /tmp/socket-smoke.txt | grep -qx 2
	grep -c 'complete=true' /tmp/socket-smoke.txt | grep -qx 2
	@echo "socket smoke test passed"

# profile-feed: CPU profile of the checker hot path (every registered
# spec's online Feed loop) for pprof archaeology:
#   go tool pprof /tmp/spec.test /tmp/feed.pprof
profile-feed:
	go test -run '^$$' -bench 'BenchmarkCheckerFeed$$' -benchtime 2x \
	  -cpuprofile /tmp/feed.pprof -o /tmp/spec.test ./internal/spec
	@echo "profile written to /tmp/feed.pprof (binary /tmp/spec.test)"

# fuzz-smoke: a short budgeted run of every fuzz target — enough to catch
# an outright decoder regression on the seed-adjacent frontier without
# holding CI hostage to a real fuzzing campaign.
fuzz-smoke:
	go test -run '^$$' -fuzz 'FuzzStepReader$$' -fuzztime 15s ./internal/trace
	go test -run '^$$' -fuzz 'FuzzFrame$$' -fuzztime 15s ./internal/nettcp

outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
