# Convenience targets for the reproduction artifact.
.PHONY: all test race bench-all fuzz-smoke figure1 impossibility outputs metrics-smoke serve-smoke load-smoke fabric-smoke socket-smoke profile-feed profile-hunt profile-check
all: test
test:
	go build ./... && go vet ./... && go test ./...
race:
	go test -race ./internal/net ./internal/nettcp ./internal/sharedmem ./internal/sched ./internal/conformance ./internal/sweep ./internal/explore ./internal/fabric ./internal/serve
stress:
	go test -race -count=3 -run 'Reentrant|Concurrent|Stress|Stop|Reorder' ./internal/net
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

# profile-hunt: CPU profile of 150 hunt ops (explore's search and ddmin
# minimization, one worker, GOMAXPROCS 1), the path ksabench's hunt
# workload times:
#   go tool pprof -top /tmp/explore.test /tmp/hunt.pprof
profile-hunt:
	go test -run '^$$' -bench 'BenchmarkExploreHunt$$' -benchtime 150x -cpu 1 -benchmem \
	  -cpuprofile /tmp/hunt.pprof -o /tmp/explore.test ./internal/explore
	@echo "profile written to /tmp/hunt.pprof (binary /tmp/explore.test)"

# profile-check: CPU profile of 2,000 /v1/check runs (runCheck, spec=all,
# k=2) on the daemon workload's upload (total-order, n=4, 62 uniform
# broadcasts, fair schedule), the path ksabench's daemon check ops time:
#   go tool pprof -top /tmp/serve.test /tmp/check.pprof
profile-check:
	go test -run '^$$' -bench 'BenchmarkCheckUpload$$' -benchtime 2000x -benchmem \
	  -cpuprofile /tmp/check.pprof -o /tmp/serve.test ./internal/serve
	@echo "profile written to /tmp/check.pprof (binary /tmp/serve.test)"

# fuzz-smoke: a short budgeted run of every fuzz target — enough to catch
# an outright decoder regression on the seed-adjacent frontier without
# holding CI hostage to a real fuzzing campaign. Minimizing a new input
# may take 2 s, not Go's default 60 s, so the budget goes to exploring.
fuzz-smoke:
	go test -run '^$$' -fuzz 'FuzzStepReader$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/trace
	go test -run '^$$' -fuzz 'FuzzFrame$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/nettcp
	go test -run '^$$' -fuzz 'FuzzDecodeFrame$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/broadcast
	go test -run '^$$' -fuzz 'FuzzDecodeRecs$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/broadcast
	go test -run '^$$' -fuzz 'FuzzAutomataOnGarbage$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/broadcast
	go test -run '^$$' -fuzz 'FuzzConflictStream$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/spec
	go test -run '^$$' -fuzz 'FuzzSpecMonitor$$' -fuzztime 10s -fuzzminimizetime 2s ./internal/spec

outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
