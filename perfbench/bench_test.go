package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hierdb"
)

// refs returns each distinct query's reference digest.
func refs(ds *dataset) []checksum {
	rels := make(map[string]*relation)
	for _, r := range ds.rels {
		rels[r.name] = r
	}
	out := make([]checksum, len(ds.specs))
	for i, p := range ds.specs {
		out[i] = p.reference(rels)
	}
	return out
}

func TestSameSeedSameData(t *testing.T) {
	for _, w := range workloads {
		a, b := w.gen(7, w.tiny), w.gen(7, w.tiny)
		if len(a.rels) != len(b.rels) {
			t.Fatalf("%s: %d vs %d relations", w.name, len(a.rels), len(b.rels))
		}
		for i := range a.rels {
			if !reflect.DeepEqual(a.rels[i], b.rels[i]) {
				t.Errorf("%s: relation %s differs between two generations", w.name, a.rels[i].name)
			}
		}
		ra, rb := refs(a), refs(b)
		if !reflect.DeepEqual(ra, rb) {
			t.Errorf("%s: reference digests differ: %v vs %v", w.name, ra, rb)
		}
		for i, c := range ra {
			if c.Rows == 0 {
				t.Errorf("%s: query %s has an empty result", w.name, a.specs[i].name)
			}
		}
		if c := w.gen(8, w.tiny); reflect.DeepEqual(refs(c), ra) {
			t.Errorf("%s: seeds 7 and 8 gave the same results", w.name)
		}
	}
}

func TestReferenceJoinAndGroup(t *testing.T) {
	rels := map[string]*relation{
		"a": {name: "a", cols: []string{"id", "k"}, rows: []hierdb.Row{{0, 1}, {1, 2}, {2, 2}, {3, 9}}},
		"b": {name: "b", cols: []string{"k", "v"}, rows: []hierdb.Row{{2, 10}, {2, 20}, {1, 30}}},
	}
	join := &planSpec{first: scanSpec{table: "a", preds: []hierdb.Pred{{Col: 0, Op: hierdb.Ge, Val: 1}}},
		joins: []joinStep{{build: scanSpec{table: "b"}, probeCol: 1, buildCol: 0}}}
	var want checksum
	for _, r := range []hierdb.Row{{1, 2, 2, 10}, {1, 2, 2, 20}, {2, 2, 2, 10}, {2, 2, 2, 20}} {
		want.add(r)
	}
	if got := join.reference(rels); got != want {
		t.Errorf("join reference = %+v, want %+v", got, want)
	}
	group := *join
	group.group = &groupSpec{keyCol: 1, sumCol: 3}
	want = checksum{}
	want.add(hierdb.Row{int64(2), int64(4), float64(60)}) // engine-typed row hashes like the reference's ints
	if got := group.reference(rels); got != want {
		t.Errorf("group reference = %+v, want %+v", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 10; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0.01, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
}

func TestFailAndSLOFractions(t *testing.T) {
	ok := &hierdb.EngineStats{OpRows: []int64{1}}
	samples := []sample{
		{lat: time.Millisecond, stats: ok},
		{lat: time.Millisecond, stats: ok},
		{lat: time.Second, stats: ok},           // slow: misses the limit only
		{lat: time.Millisecond, rejected: true}, // rejections miss the limit
		{lat: time.Millisecond, err: errors.New("boom")},
		{lat: time.Millisecond, wrong: true},
		{lat: time.Millisecond, stats: ok},
		{lat: time.Millisecond, stats: ok},
	}
	r := &report{w: &workload{}, correct: true, values: make(map[string]float64)}
	r.measure(samples, time.Second, 10*time.Millisecond)
	if got, want := r.values["fail_frac"], 3.0/8; got != want {
		t.Errorf("fail_frac = %v, want %v", got, want)
	}
	if got, want := r.values["slo_miss_frac"], 4.0/8; got != want {
		t.Errorf("slo_miss_frac = %v, want %v", got, want)
	}
	if got, want := r.values["admit.rejected_frac"], 1.0/8; got != want {
		t.Errorf("admit.rejected_frac = %v, want %v", got, want)
	}
	if r.correct {
		t.Error("a wrong result left the run marked correct")
	}
	if got, want := r.values["qps"], 5.0; got != want {
		t.Errorf("qps = %v, want %v (only correct completions count)", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "d", Start: 12, End: 18},
		{ID: 5, Parent: -1, Name: "query", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 30, 6, 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["query"] != 60 {
		t.Errorf("query self time = %v, want 60", byName["query"])
	}
	// Query 0 is half covered by its children, query 5 not at all.
	if got, want := queryCover(spans), (0.5+0)/2; got != want {
		t.Errorf("queryCover = %v, want %v", got, want)
	}
}

// TestSmoke runs every workload at its tiny size with tracing on and
// checks that each exercises the layers it claims and bypasses the
// ones it claims to bypass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	positive := map[string][]string{
		"olap-mem":   {"exec.intermediate_rows_per_query", "optimize.plan_us", "catalog.analyze_ms"},
		"disk-spill": {"spill.partitions_per_query", "spill.mb_per_query", "store.skip_frac", "store.chunks_scanned_per_query", "store.readchunk_us", "store.write_mb_s", "vec.preds_ns_per_row"},
		"skew-4node": {"globallb.steals_per_query", "globallb.stolen_acts_per_query", "nodes.rows_redistributed_per_query"},
		"serve-mix":  {"admit.wait_p99_ms", "admit.waited_frac", "optimize.plan_us", "vec.preds_ns_per_row", "loadgen.late_p99_ms"},
	}
	zero := map[string][]string{
		"olap-mem":   {"spill.mb_per_query", "store.chunks_scanned_per_query", "store.disk_mb_per_query", "globallb.steals_per_query", "admit.waited_frac"},
		"disk-spill": {"globallb.steals_per_query", "nodes.rows_redistributed_per_query", "admit.waited_frac"},
		"skew-4node": {"spill.mb_per_query", "store.chunks_scanned_per_query", "admit.waited_frac"},
		"serve-mix":  {"store.chunks_scanned_per_query", "globallb.steals_per_query"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			wc := *w
			if wc.clients == 0 {
				wc.rate = 1000 // a burst, so the two admission slots make queries wait
			}
			r, err := bench(&wc, wc.tiny, 3, 400*time.Millisecond, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !r.correct || r.samples == 0 {
				t.Fatalf("correct=%v samples=%d problems=%v", r.correct, r.samples, r.problems)
			}
			for _, m := range positive[w.name] {
				if r.values[m] <= 0 {
					t.Errorf("%s = %v, want > 0", m, r.values[m])
				}
			}
			for _, m := range zero[w.name] {
				if r.values[m] != 0 {
					t.Errorf("%s = %v, want 0", m, r.values[m])
				}
			}
			if c := r.values["trace.cover_frac"]; c < 0.95 {
				t.Errorf("child spans cover %.3f of the query spans, want >= 0.95", c)
			}
		})
	}
}
