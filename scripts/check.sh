#!/bin/sh
# Tier-1 gate (ROADMAP.md) plus vet and a race pass over the packages that
# exercise real concurrency: gxhc (goroutine-backed library), env (harness
# plumbing), verify (schedule-exploration checker, which drives gxhc) —
# exper's parallel experiment cells are covered transitively.
# Equivalent to `make check`; kept as a script for environments without make.
set -eux

go build ./...
go vet ./...
go test -shuffle=on ./...
# The benchmark's own tests: perfbench/ is a separate Go module, so the
# line above does not reach it. Its oracle, corrupted-output and
# panicking-rank tests pin the gxhc outputs the benchmark times.
(cd perfbench && go test ./...)
go test -race ./internal/gxhc/ ./internal/env/ ./internal/verify/

# Schedule-exploration gate: sweep randomized configurations under seeded
# random/PCT schedules with fault injection, cross-checking XHC against a
# baseline and gxhc on every run, then prove the checker catches seeded
# protocol bugs (mutation self-test). Prints a replay seed pair on failure.
go run ./cmd/xhcverify -quick

# Multi-node sweep: randomized cluster shapes on the sharded engine, every
# run executed at workers=1 and workers=GOMAXPROCS with schedule
# fingerprints compared (any divergence is an engine-sharding determinism
# bug, reported with a -cluster -replay seed pair).
go run ./cmd/xhcverify -cluster -quick

# Short fuzz smoke: the seed corpora plus a few seconds of mutation on the
# goroutine-backed allreduce, rooted reduce, allgather, the non-blocking
# request layer (random Test/Wait interleavings over 2-4 overlapped
# Iallreduces per rank) and the hierarchy builder. The race pass above
# already covers the gxhc non-blocking tests.
go test -fuzz FuzzGoCommAllreduce -fuzztime 5s -run '^$' ./internal/gxhc/
go test -fuzz FuzzGoCommReduce -fuzztime 5s -run '^$' ./internal/gxhc/
go test -fuzz FuzzGoCommAllgather -fuzztime 5s -run '^$' ./internal/gxhc/
go test -fuzz FuzzGoCommIallreduceOverlap -fuzztime 5s -run '^$' ./internal/gxhc/
go test -fuzz FuzzHierarchyBuild -fuzztime 5s -run '^$' ./internal/hier/
go test -fuzz FuzzPlanFile -fuzztime 5s -run '^$' ./internal/tune/

# The oversubscription regression (waiter starvation) under a thread
# budget far below the rank count; the test sets GOMAXPROCS itself, but
# the env var makes the whole process thread-starved as in the original
# report. The race pass re-runs the parking handshake (Dekker store/load +
# intrusive wait queue) under the same starvation.
GOMAXPROCS=2 go test -timeout 120s -run TestOversubscribedProgress ./internal/gxhc/
GOMAXPROCS=2 go test -race -timeout 300s -run TestOversubscribedProgress ./internal/gxhc/

# With observability compiled in but disabled (no -trace/-metrics), reports
# must stay byte-identical: no Observer is installed, so world construction
# takes the exact pre-observability path at any worker count.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/xhcrepro -quick -parallel 1 -o "$tmpdir/seq.md"
go run ./cmd/xhcrepro -quick -parallel 4 -o "$tmpdir/par.md"
cmp "$tmpdir/seq.md" "$tmpdir/par.md"

# Live telemetry must be report-invariant: stdout with -telemetry serving
# (histograms, flight recorder and straggler detection all active) is
# byte-identical to stdout with telemetry off. The endpoint reports its
# address on stderr only. Checked on bcast and on one of the newer
# collectives (scatter).
go run ./cmd/xhcbench -platform ARM-N1 -coll bcast -comp xhc-tree,tuned \
    -sizes 4,1024,65536 -json "$tmpdir/cells.json" > "$tmpdir/bench_off.txt"
go run ./cmd/xhcbench -platform ARM-N1 -coll bcast -comp xhc-tree,tuned \
    -sizes 4,1024,65536 -telemetry 127.0.0.1:0 > "$tmpdir/bench_on.txt" 2>/dev/null
cmp "$tmpdir/bench_off.txt" "$tmpdir/bench_on.txt"
go run ./cmd/xhcbench -platform ARM-N1 -coll scatter -comp xhc-tree,tuned,sm \
    -sizes 4,1024,65536 -json "$tmpdir/cells_sc.json" > "$tmpdir/sc_off.txt"
go run ./cmd/xhcbench -platform ARM-N1 -coll scatter -comp xhc-tree,tuned,sm \
    -sizes 4,1024,65536 -telemetry 127.0.0.1:0 > "$tmpdir/sc_on.txt" 2>/dev/null
cmp "$tmpdir/sc_off.txt" "$tmpdir/sc_on.txt"

# Tuned-vs-default telemetry invariance: the xhc-tuned component resolves
# its plan per size from the committed tuned/ARM-N1.json (a missing plan
# file or uncovered cell is a hard error, never a silent fallback), and
# serving live telemetry while the tuner's plans are active must not move
# a simulated latency by a byte, exactly as for the stock components.
go run ./cmd/xhcbench -platform ARM-N1 -coll bcast -comp xhc-tree,xhc-tuned \
    -tuned tuned/ARM-N1.json -sizes 4,1024,65536 \
    -json "$tmpdir/cells_tu.json" > "$tmpdir/tu_off.txt"
go run ./cmd/xhcbench -platform ARM-N1 -coll bcast -comp xhc-tree,xhc-tuned \
    -tuned tuned/ARM-N1.json -sizes 4,1024,65536 \
    -telemetry 127.0.0.1:0 > "$tmpdir/tu_on.txt" 2>/dev/null
cmp "$tmpdir/tu_off.txt" "$tmpdir/tu_on.txt"

# Tuner repro gate (DESIGN.md section 17): replay the committed plan
# file's pinned cells fresh and fail on any 5%/1us regression. It shares
# nothing with the gates below, so it runs in the background — and is
# reaped at the end of the script with an explicit `wait "$pid"`: `set -e`
# never sees a background job's status, and a bare `wait` with no operand
# always returns 0, so the per-pid wait is the only form that propagates a
# tuner regression into this script's exit code.
go run ./cmd/xhctune -check -quick -plan tuned/ARM-N1.json > /dev/null &
tune_pid=$!

# The same telemetry invariance on the real backend, with the zero-alloc
# gate held in both runs: serving live telemetry (flight recorder +
# histograms + straggler detection on every op) must not change the
# report's shape nor put an allocation on the steady-state op path. The
# real backend's cells are measured wall-clock latencies, so the numbers
# legitimately vary run to run — the cmp is over the report with digits
# masked (structure, labels, sizes), while -allocgate holds both runs to
# an allocation-free op path.
go run ./cmd/xhcbench -backend gxhc -coll allreduce -np 4 -procs 2 \
    -sizes 4096 -warmup 5 -iters 20 -allocgate \
    -json "$tmpdir/cells_gx.json" > "$tmpdir/gx_off.txt"
go run ./cmd/xhcbench -backend gxhc -coll allreduce -np 4 -procs 2 \
    -sizes 4096 -warmup 5 -iters 20 -allocgate \
    -telemetry 127.0.0.1:0 > "$tmpdir/gx_on.txt" 2>/dev/null
sed 's/[0-9][0-9.]*/N/g; s/  */ /g; s/--*/-/g' "$tmpdir/gx_off.txt" > "$tmpdir/gx_off_shape.txt"
sed 's/[0-9][0-9.]*/N/g; s/  */ /g; s/--*/-/g' "$tmpdir/gx_on.txt" > "$tmpdir/gx_on_shape.txt"
cmp "$tmpdir/gx_off_shape.txt" "$tmpdir/gx_on_shape.txt"

# Regression gate sanity: xhcstat must pass a self-diff of the cells it
# just measured (zero regressions against itself, exit 0), and of the
# committed real-backend baseline (BENCH_gxhc.json, whose benchmark names
# are xhcbench -backend gxhc -json cell keys — a fresh cells file diffs
# directly against it).
go run ./cmd/xhcstat -baseline "$tmpdir/cells.json" -current "$tmpdir/cells.json" > /dev/null
go run ./cmd/xhcstat -baseline "$tmpdir/cells_sc.json" -current "$tmpdir/cells_sc.json" > /dev/null
go run ./cmd/xhcstat -baseline BENCH_gxhc.json -current BENCH_gxhc.json > /dev/null
go run ./cmd/xhcstat -baseline "$tmpdir/cells_tu.json" -current "$tmpdir/cells_tu.json" > /dev/null

# Non-blocking overlap cells (ibcast-overlap: overlapDepth broadcasts in
# flight with fusion off; ibcast-fused: the same window fused into one
# traversal), with the zero-alloc gate held on every cell. xhcstat diffs
# only cells present in both key sets, so the new cells must self-diff
# cleanly — both the freshly measured file and the committed
# BENCH_overlap.json trajectory (wall-clock numbers vary run to run, so
# the committed file gates key coverage, like BENCH_gxhc.json; regenerate
# with `make bench-overlap`).
go run ./cmd/xhcbench -backend gxhc -coll ibcast-overlap,ibcast-fused -np 4 -procs 2 \
    -sizes 256,1024 -warmup 5 -iters 20 -allocgate \
    -json "$tmpdir/cells_ov.json" > /dev/null
go run ./cmd/xhcstat -baseline "$tmpdir/cells_ov.json" -current "$tmpdir/cells_ov.json" > /dev/null
go run ./cmd/xhcstat -baseline BENCH_overlap.json -current BENCH_overlap.json > /dev/null

# Cluster determinism + baseline gate: the sharded (workers=4) report must
# be byte-identical to the sequential (workers=1) reference, and the
# committed BENCH_cluster.json must diff cleanly against a fresh sweep in
# both directions — cluster latencies are simulated virtual time, so any
# difference at all is a real model/protocol/determinism change, not
# measurement noise.
go run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
    -np 32 -sizes 8,1024,65536,1048576 -workers 1 \
    -json "$tmpdir/cells_cl.json" > "$tmpdir/cl_seq.txt"
go run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
    -np 32 -sizes 8,1024,65536,1048576 -workers 4 > "$tmpdir/cl_par.txt"
cmp "$tmpdir/cl_seq.txt" "$tmpdir/cl_par.txt"

# Telemetry invariance on the cluster platform: live serving turns on the
# NIC/fabric overlay blame, the critical-path accumulator and the
# cross-node straggler scan, and none of it may shift a simulated latency
# — the report stays byte-identical to the unobserved sequential
# reference.
go run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
    -np 32 -sizes 8,1024,65536,1048576 -workers 1 \
    -telemetry 127.0.0.1:0 > "$tmpdir/cl_tel.txt" 2>/dev/null
cmp "$tmpdir/cl_seq.txt" "$tmpdir/cl_tel.txt"
go run ./cmd/xhcstat -baseline BENCH_cluster.json -current "$tmpdir/cells_cl.json" > /dev/null
go run ./cmd/xhcstat -baseline "$tmpdir/cells_cl.json" -current BENCH_cluster.json > /dev/null

# Reap the backgrounded tuner gate (see above): only an explicit per-pid
# wait makes its failure fail the whole script.
wait "$tune_pid"
