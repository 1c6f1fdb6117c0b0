# Development entry points. `make check` is the tier-1 gate (ROADMAP.md)
# plus vet and a race pass over the concurrency-bearing packages; run it
# before every commit.

GO ?= go

.PHONY: build test vet perfbench-test race verify verify-cluster fuzz-smoke harness-checks telemetry-check cluster-check tune-check check bench bench-sim bench-gxhc bench-cluster bench-overlap bench-obs bench-tune quick-report

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

# The benchmark's own tests. perfbench/ is a separate Go module, so
# `go test ./...` above does not reach it; its oracle, corrupted-output and
# panicking-rank tests pin the gxhc outputs the benchmark times.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The simulator itself is single-threaded per world, but gxhc (the real
# goroutine-backed library), env (cross-world harness plumbing) and verify
# (the schedule-exploration checker, which drives gxhc) exercise real
# concurrency, and exper fans independent experiment cells out across
# worker goroutines — so those run under the race detector.
race:
	$(GO) test -race ./internal/gxhc/ ./internal/env/ ./internal/verify/
	$(GO) test -race -run 'Online' ./internal/tune/

# Schedule-exploration checker: randomized configurations x seeded
# schedules with fault injection, invariant checks on every run, plus the
# mutation self-test proving seeded protocol bugs are detected. See
# DESIGN.md section 10; failures print an xhcverify -replay seed pair.
verify:
	$(GO) run ./cmd/xhcverify -quick

# Multi-node sweep: randomized cluster shapes on the sharded engine, every
# run executed at workers=1 and workers=GOMAXPROCS with fingerprints
# compared (DESIGN.md section 14).
verify-cluster:
	$(GO) run ./cmd/xhcverify -cluster -quick

# Seed corpora plus a few seconds of coverage-guided mutation.
fuzz-smoke:
	$(GO) test -fuzz FuzzGoCommAllreduce -fuzztime 5s -run '^$$' ./internal/gxhc/
	$(GO) test -fuzz FuzzGoCommReduce -fuzztime 5s -run '^$$' ./internal/gxhc/
	$(GO) test -fuzz FuzzGoCommAllgather -fuzztime 5s -run '^$$' ./internal/gxhc/
	$(GO) test -fuzz FuzzGoCommIallreduceOverlap -fuzztime 5s -run '^$$' ./internal/gxhc/
	$(GO) test -fuzz FuzzHierarchyBuild -fuzztime 5s -run '^$$' ./internal/hier/
	$(GO) test -fuzz FuzzPlanFile -fuzztime 5s -run '^$$' ./internal/tune/

# Oversubscription regression (waiter starvation, plus a race pass over
# the parking handshake under the same thread starvation) and the pin that
# reports stay byte-identical with observability compiled in but disabled;
# scripts/check.sh carries the same steps for environments without make.
harness-checks:
	GOMAXPROCS=2 $(GO) test -timeout 120s -run TestOversubscribedProgress ./internal/gxhc/
	GOMAXPROCS=2 $(GO) test -race -timeout 300s -run TestOversubscribedProgress ./internal/gxhc/
	$(GO) run ./cmd/xhcrepro -quick -parallel 1 -o /tmp/xhc_check_seq.md
	$(GO) run ./cmd/xhcrepro -quick -parallel 4 -o /tmp/xhc_check_par.md
	cmp /tmp/xhc_check_seq.md /tmp/xhc_check_par.md

# Telemetry invariance + regression-gate sanity: serving live telemetry
# must not change benchmark stdout by a byte (checked on bcast and on one
# of the newer collectives), and xhcstat must pass a self-diff of freshly
# measured cells (see DESIGN.md section 11).
telemetry-check:
	$(GO) run ./cmd/xhcbench -platform ARM-N1 -coll bcast -comp xhc-tree,tuned \
	    -sizes 4,1024,65536 -json /tmp/xhc_check_cells.json > /tmp/xhc_check_tel_off.txt
	$(GO) run ./cmd/xhcbench -platform ARM-N1 -coll bcast -comp xhc-tree,tuned \
	    -sizes 4,1024,65536 -telemetry 127.0.0.1:0 > /tmp/xhc_check_tel_on.txt 2>/dev/null
	cmp /tmp/xhc_check_tel_off.txt /tmp/xhc_check_tel_on.txt
	$(GO) run ./cmd/xhcbench -platform ARM-N1 -coll scatter -comp xhc-tree,tuned,sm \
	    -sizes 4,1024,65536 -json /tmp/xhc_check_cells_sc.json > /tmp/xhc_check_sc_off.txt
	$(GO) run ./cmd/xhcbench -platform ARM-N1 -coll scatter -comp xhc-tree,tuned,sm \
	    -sizes 4,1024,65536 -telemetry 127.0.0.1:0 > /tmp/xhc_check_sc_on.txt 2>/dev/null
	cmp /tmp/xhc_check_sc_off.txt /tmp/xhc_check_sc_on.txt
	$(GO) run ./cmd/xhcstat -baseline /tmp/xhc_check_cells.json \
	    -current /tmp/xhc_check_cells.json > /dev/null
	$(GO) run ./cmd/xhcstat -baseline /tmp/xhc_check_cells_sc.json \
	    -current /tmp/xhc_check_cells_sc.json > /dev/null
	$(GO) run ./cmd/xhcbench -backend gxhc -coll allreduce -np 4 -procs 2 \
	    -sizes 4096 -warmup 5 -iters 20 -allocgate \
	    -json /tmp/xhc_check_gx.json > /tmp/xhc_check_gx_off.txt
	$(GO) run ./cmd/xhcbench -backend gxhc -coll allreduce -np 4 -procs 2 \
	    -sizes 4096 -warmup 5 -iters 20 -allocgate \
	    -telemetry 127.0.0.1:0 > /tmp/xhc_check_gx_on.txt 2>/dev/null
	sed 's/[0-9][0-9.]*/N/g; s/  */ /g; s/--*/-/g' /tmp/xhc_check_gx_off.txt > /tmp/xhc_check_gx_off_shape.txt
	sed 's/[0-9][0-9.]*/N/g; s/  */ /g; s/--*/-/g' /tmp/xhc_check_gx_on.txt > /tmp/xhc_check_gx_on_shape.txt
	cmp /tmp/xhc_check_gx_off_shape.txt /tmp/xhc_check_gx_on_shape.txt
	$(GO) run ./cmd/xhcstat -baseline BENCH_gxhc.json \
	    -current BENCH_gxhc.json > /dev/null
	$(GO) run ./cmd/xhcbench -backend gxhc -coll ibcast-overlap,ibcast-fused \
	    -np 4 -procs 2 -sizes 256,1024 -warmup 5 -iters 20 -allocgate \
	    -json /tmp/xhc_check_ov.json > /dev/null
	$(GO) run ./cmd/xhcstat -baseline /tmp/xhc_check_ov.json \
	    -current /tmp/xhc_check_ov.json > /dev/null
	$(GO) run ./cmd/xhcstat -baseline BENCH_overlap.json \
	    -current BENCH_overlap.json > /dev/null

# Tuner repro gate (DESIGN.md section 17): replay the committed plan
# file's pinned cells fresh — default plan vs persisted winner, simulated
# latencies, so verdicts are exact — and fail xhcstat-style if any tuned
# cell is more than 5% and 1us slower than the default. The committed
# BENCH_tune.json trajectory must also self-diff cleanly (both-key-sets
# rule, like BENCH_gxhc.json; regenerate with `make bench-tune`).
tune-check:
	$(GO) run ./cmd/xhctune -check -quick -plan tuned/ARM-N1.json > /dev/null
	$(GO) run ./cmd/xhcstat -baseline BENCH_tune.json -current BENCH_tune.json > /dev/null

# Cluster determinism + baseline gate: the sharded run's report must be
# byte-identical to the sequential reference — and so must a run with live
# telemetry serving (the cluster path records NIC/fabric overlay blame and
# runs the cross-node straggler scan, none of which may perturb simulated
# latencies) — and the committed BENCH_cluster.json (simulated latencies,
# so bit-reproducible) must diff cleanly against a fresh sweep in both
# directions.
cluster-check:
	$(GO) run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
	    -np 32 -sizes 8,1024,65536,1048576 -workers 1 \
	    -json /tmp/xhc_check_cl.json > /tmp/xhc_check_cl_seq.txt
	$(GO) run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
	    -np 32 -sizes 8,1024,65536,1048576 -workers 4 > /tmp/xhc_check_cl_par.txt
	cmp /tmp/xhc_check_cl_seq.txt /tmp/xhc_check_cl_par.txt
	$(GO) run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
	    -np 32 -sizes 8,1024,65536,1048576 -workers 1 \
	    -telemetry 127.0.0.1:0 > /tmp/xhc_check_cl_tel.txt 2>/dev/null
	cmp /tmp/xhc_check_cl_seq.txt /tmp/xhc_check_cl_tel.txt
	$(GO) run ./cmd/xhcstat -baseline BENCH_cluster.json \
	    -current /tmp/xhc_check_cl.json > /dev/null
	$(GO) run ./cmd/xhcstat -baseline /tmp/xhc_check_cl.json \
	    -current BENCH_cluster.json > /dev/null

check: build vet test perfbench-test race verify verify-cluster fuzz-smoke harness-checks telemetry-check tune-check cluster-check

# Simulator performance benchmarks (see DESIGN.md section 8 and
# BENCH_flowsolver.json for the recorded before/after numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkFlowSolver|BenchmarkReschedule' -benchmem ./internal/mem/
	$(GO) test -run '^$$' -bench 'BenchmarkFig08Bcast/ARM-N1/xhc-tree$$|BenchmarkFig11Allreduce/ARM-N1/(xhc-tree|xbrc)$$' -benchtime 10x -benchmem .

# Real-backend wall-clock tables for all six collectives across a
# GOMAXPROCS sweep, with the zero-alloc gate on every cell — the sweep
# that produced BENCH_gxhc.json (gate fresh runs against it with
# `xhcstat -baseline BENCH_gxhc.json -current <cells.json>`).
bench-gxhc:
	for c in bcast allreduce barrier reduce allgather scatter; do \
	    $(GO) run ./cmd/xhcbench -backend gxhc -coll $$c -np 8 -procs 2,8 \
	        -sizes 64,4096,65536,1048576 -warmup 10 -iters 50 -allocgate \
	        -json /tmp/xhc_bench_gx_$$c.json || exit 1; \
	done

# Regenerate the multi-node cluster sweep and gate it against the
# committed BENCH_cluster.json. Latencies are simulated, so any difference
# at all is a real model/protocol/determinism change, not noise.
bench-cluster:
	$(GO) run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
	    -np 32 -sizes 8,1024,65536,1048576 -workers 0 \
	    -json /tmp/xhc_bench_cluster.json
	$(GO) run ./cmd/xhcstat -baseline BENCH_cluster.json \
	    -current /tmp/xhc_bench_cluster.json
	$(GO) run ./cmd/xhcstat -baseline /tmp/xhc_bench_cluster.json \
	    -current BENCH_cluster.json > /dev/null

# Regenerate the non-blocking overlap trajectory: the overlapDepth-deep
# Ibcast window with fusion off (ibcast-overlap) vs on (ibcast-fused),
# zero-alloc gate held on every cell. Latencies are wall clock, so the
# committed BENCH_overlap.json gates cell coverage via self-diff (like
# BENCH_gxhc.json), not exact numbers.
bench-overlap:
	$(GO) run ./cmd/xhcbench -backend gxhc -coll ibcast-overlap,ibcast-fused \
	    -np 8 -procs 2,8 -sizes 64,256,1024 -warmup 10 -iters 50 -allocgate \
	    -json BENCH_overlap.json
	$(GO) run ./cmd/xhcstat -baseline BENCH_overlap.json \
	    -current BENCH_overlap.json > /dev/null

# Refresh BENCH_obs.json: the observability hot-path microbenchmarks plus
# "obs-on" overhead cells — the cluster and overlap sweeps measured with
# live telemetry serving — self-diffed by xhcstat. Cluster cells are
# virtual time and must match BENCH_cluster.json exactly; overlap cells
# are wall clock and gate key coverage.
bench-obs:
	sh scripts/bench_obs.sh

# Regenerate the autotuner artifacts: a full offline sweep-and-select on
# ARM-N1 (all 160 ranks, full iteration counts — the same fidelity the
# tune-check gate replays against) persisting the winning plan per pinned
# cell to tuned/ARM-N1.json and the default-vs-tuned cells to
# BENCH_tune.json, then the repro gate over what was just written.
bench-tune:
	mkdir -p tuned
	$(GO) run ./cmd/xhctune -sweep -platform ARM-N1 \
	    -plan tuned/ARM-N1.json -benchout BENCH_tune.json
	$(GO) run ./cmd/xhctune -check -quick -plan tuned/ARM-N1.json > /dev/null
	$(GO) run ./cmd/xhcstat -baseline BENCH_tune.json -current BENCH_tune.json > /dev/null

quick-report:
	$(GO) run ./cmd/xhcrepro -quick -o EXPERIMENTS_quick.txt
