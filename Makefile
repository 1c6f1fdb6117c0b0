# Development entry points. `make check` runs scripts/check.sh, the one
# definition of the gate: tier-1 (ROADMAP.md) plus vet, race passes,
# schedule exploration, fuzz smoke and the byte-identity cmps. Run it
# before every commit.

GO ?= go

.PHONY: build test vet check bench bench-sim bench-cluster bench-tune quick-report

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

check:
	sh scripts/check.sh

# Simulator performance benchmarks (see DESIGN.md section 8 for the
# recorded before/after numbers of the flow-solver rework).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkFlowSolver|BenchmarkReschedule' -benchmem ./internal/mem/
	$(GO) test -run '^$$' -bench 'BenchmarkFig08Bcast/ARM-N1/xhc-tree$$|BenchmarkFig11Allreduce/ARM-N1/(xhc-tree|xbrc)$$' -benchtime 10x -benchmem .

# Rewrite BENCH_cluster.json from a fresh multi-node sweep. Latencies are
# simulated, so the file is byte-reproducible and TestClusterBaselineExact
# (cmd/xhcbench) requires a fresh sweep to equal it exactly: rerun this
# only for a change that means to move these numbers.
bench-cluster:
	$(GO) run ./cmd/xhcbench -platform 4xEpyc-1P -coll bcast,allreduce,reduce,barrier \
	    -np 32 -sizes 8,1024,65536,1048576 -workers 1 \
	    -json BENCH_cluster.json > /dev/null

# Regenerate the autotuner artifacts: a full offline sweep-and-select on
# ARM-N1 (all 160 ranks, full iteration counts — the same fidelity the
# check.sh tuner gate replays against) persisting the winning plan per
# pinned cell to tuned/ARM-N1.json, then the repro gate over what was just
# written.
bench-tune:
	mkdir -p tuned
	$(GO) run ./cmd/xhctune -sweep -platform ARM-N1 -plan tuned/ARM-N1.json
	$(GO) run ./cmd/xhctune -check -quick -plan tuned/ARM-N1.json > /dev/null

quick-report:
	$(GO) run ./cmd/xhcrepro -quick -o EXPERIMENTS_quick.txt
