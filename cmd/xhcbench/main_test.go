package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"xhc/internal/topo"
)

// clusterBaseline is the committed multi-node sweep, written by `make
// bench-cluster` (xhcbench -platform 4xEpyc-1P -coll
// bcast,allreduce,reduce,barrier -np 32 -sizes 8,1024,65536,1048576
// -workers 1 -json BENCH_cluster.json).
const clusterBaseline = "../../BENCH_cluster.json"

// clusterSweep is the in-process equivalent of that command, at the
// default -warmup/-iters and with buffer dirtying on (no -stock).
var clusterSweep = clusterOpts{
	coll:   "bcast,allreduce,reduce,barrier",
	sizes:  []int{8, 1024, 65536, 1048576},
	nranks: 32, warmup: 4, iters: 10, dirty: true,
	workers: 1,
}

func cellKey(c cellRecord) string {
	return fmt.Sprintf("%s/%s/%s/%d", c.Platform, c.Collective, c.Component, c.Size)
}

// diffCells lists every difference between two cell sets, sorted: a cell
// whose avg/min/max latency differs in any bit, a cell only in want and a
// cell only in got. Virtual-time latencies are deterministic, so there is
// no tolerance: any difference is a model, protocol or determinism change.
func diffCells(want, got []cellRecord) []string {
	gotBy := make(map[string]cellRecord, len(got))
	for _, c := range got {
		gotBy[cellKey(c)] = c
	}
	var diffs []string
	seen := make(map[string]bool, len(want))
	for _, w := range want {
		k := cellKey(w)
		seen[k] = true
		g, ok := gotBy[k]
		switch {
		case !ok:
			diffs = append(diffs, "missing "+k)
		case g.AvgLatUS != w.AvgLatUS || g.MinLatUS != w.MinLatUS || g.MaxLatUS != w.MaxLatUS:
			diffs = append(diffs, fmt.Sprintf("changed %s: avg/min/max %v/%v/%v, want %v/%v/%v",
				k, g.AvgLatUS, g.MinLatUS, g.MaxLatUS, w.AvgLatUS, w.MinLatUS, w.MaxLatUS))
		}
	}
	for _, g := range got {
		if k := cellKey(g); !seen[k] {
			diffs = append(diffs, "extra "+k)
		}
	}
	sort.Strings(diffs)
	return diffs
}

func loadBaseline(t *testing.T) []cellRecord {
	t.Helper()
	data, err := os.ReadFile(clusterBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var cells []cellRecord
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatalf("%s: %v", clusterBaseline, err)
	}
	if len(cells) == 0 {
		t.Fatalf("%s: no cells", clusterBaseline)
	}
	return cells
}

// TestClusterBaselineExact reruns the committed cluster sweep and requires
// every cell to equal BENCH_cluster.json exactly. Regenerate the file with
// `make bench-cluster` only for a change that means to move these numbers.
func TestClusterBaselineExact(t *testing.T) {
	want := loadBaseline(t)
	got := runCluster(topo.ClusterByName("4xEpyc-1P"), clusterSweep)
	for _, d := range diffCells(want, got) {
		t.Error(d)
	}
}

// TestDiffCellsReportsAnyChange pins the comparison itself: a one-ulp
// change to one latency, a lost cell and an unexpected cell are each
// reported, and an identical set reports nothing.
func TestDiffCellsReportsAnyChange(t *testing.T) {
	base := loadBaseline(t)
	clone := func() []cellRecord { return append([]cellRecord(nil), base...) }

	if d := diffCells(base, clone()); len(d) != 0 {
		t.Fatalf("identical sets differ: %v", d)
	}

	for _, field := range []string{"avg", "min", "max"} {
		got := clone()
		c := &got[len(got)/2]
		p := map[string]*float64{"avg": &c.AvgLatUS, "min": &c.MinLatUS, "max": &c.MaxLatUS}[field]
		*p = math.Nextafter(*p, math.Inf(1))
		want := "changed " + cellKey(*c)
		if d := diffCells(base, got); len(d) != 1 || !strings.HasPrefix(d[0], want) {
			t.Errorf("one-ulp %s change: got %v, want one %q", field, d, want)
		}
	}

	got := clone()[1:]
	if d := diffCells(base, got); len(d) != 1 || d[0] != "missing "+cellKey(base[0]) {
		t.Errorf("missing cell: got %v", d)
	}

	extra := base[0]
	extra.Size++
	got = append(clone(), extra)
	if d := diffCells(base, got); len(d) != 1 || d[0] != "extra "+cellKey(extra) {
		t.Errorf("extra cell: got %v", d)
	}
}
