// Command perfbench is hierdb's end-to-end benchmark. It drives the
// real-data engine through the public hierdb facade on one of four
// workloads, checks every query result against a naive reference
// evaluator, and prints the workload's metrics, one JSON object on the
// last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload olap-mem --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run also records spans around its own calls into each layer,
// times single-layer passes, and reports the per-layer metrics instead.
// It exits nonzero on any wrong result or invalid run. README.md
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hierdb"
)

// workDir holds table files, spill files and traces, relative to the
// directory the benchmark runs from.
const workDir = ".bench_build"

// maxLateP50 bounds how late the open loop may send its median arrival
// before the run is invalid.
const maxLateP50 = 2 * time.Millisecond

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: olap-mem, disk-spill, skew-4node or serve-mix")
	seed := fs.Uint64("seed", 1, "seed of the generated data and arrival schedule")
	seconds := fs.Float64("seconds", 10, "length of the measured load phase")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	rate := fs.Float64("rate", 0, "open-loop arrival rate override, for finding the knee (0 = the workload's)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookup(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (olap-mem, disk-spill, skew-4node, serve-mix), --seconds > 0, --trace 0|1\n")
		return 2
	}
	if *rate > 0 {
		wc := *w
		wc.rate = *rate
		w = &wc
	}
	rep, err := bench(w, w.full, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(stdout, *trace == 1)
	if !rep.correct || !rep.valid {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit, in report order.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, reported with
// tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"qps", "1/s"}, {"p50_ms", "ms"}, {"peak_rss_mb", "MB"},
}

// info are end-to-end figures printed on the summary line but left out
// of the gated metrics (README.md says why).
var info = []metricDef{
	{"p95_ms", "ms"}, {"p99_ms", "ms"}, {"fail_frac", "frac"}, {"slo_miss_frac", "frac"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"hierdb.run_ms", "ms"}, {"hierdb.ttfr_ms", "ms"}, {"hierdb.drain_ms", "ms"}, {"hierdb.rows_per_query", "count"},
	{"exec.activations_per_query", "count"}, {"exec.imbalance", "ratio"}, {"exec.intermediate_rows_per_query", "count"},
	{"admit.wait_p99_ms", "ms"}, {"admit.waited_frac", "frac"}, {"admit.rejected_frac", "frac"},
	{"optimize.plan_us", "us"}, {"catalog.analyze_ms", "ms"},
	{"globallb.steal_rounds_per_query", "count"}, {"globallb.steals_per_query", "count"}, {"globallb.steal_hit_frac", "frac"},
	{"globallb.stolen_acts_per_query", "count"}, {"globallb.stolen_bucket_kb_per_query", "KB"},
	{"nodes.rows_redistributed_per_query", "count"}, {"nodes.partition_ms", "ms"},
	{"spill.mb_per_query", "MB"}, {"spill.partitions_per_query", "count"}, {"spill.phases_per_query", "count"},
	{"spill.encode_mb_s", "MB/s"}, {"spill.decode_mb_s", "MB/s"},
	{"store.chunks_scanned_per_query", "count"}, {"store.skip_frac", "frac"}, {"store.disk_mb_per_query", "MB"},
	{"store.readchunk_us", "us"}, {"store.allocs_per_chunk", "count"}, {"store.write_mb_s", "MB/s"},
	{"vec.preds_ns_per_row", "ns"},
	{"runtime.gc_cpu_frac", "frac"}, {"runtime.allocs_per_query", "count"}, {"runtime.alloc_mb_per_query", "MB"}, {"runtime.heap_peak_mb", "MB"},
	{"loadgen.late_p99_ms", "ms"},
	{"setup.generate_ms", "ms"}, {"setup.warmup_ms", "ms"},
	{"trace.cover_frac", "frac"}, {"trace.qps", "1/s"}, {"trace.p50_ms", "ms"},
}

// report is one run's outcome.
type report struct {
	w        *workload
	seed     uint64
	correct  bool // every result matched the reference
	valid    bool // the open-loop generator kept its schedule
	tally    tally
	samples  int
	lateP50  time.Duration // open loop: how late the median arrival was sent
	values   map[string]float64
	problems []string
}

// bench sets the workload up sz.setupReps times (keeping the last),
// computes the reference results, runs the load for d and measures it.
func bench(w *workload, sz size, seed uint64, d time.Duration, traced bool, dir string) (*report, error) {
	tr := newTracer(traced)
	base, err := filepath.Abs(filepath.Join(dir, fmt.Sprintf("run-%s-%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	var fx *fixture
	var setups []float64
	for rep := 0; rep < sz.setupReps; rep++ {
		if fx != nil {
			fx.close()
		}
		runtime.GC() // the previous repetition's garbage is not this one's set-up cost
		start := time.Now()
		fx, err = w.setup(seed, sz, filepath.Join(base, fmt.Sprintf("setup%d", rep)), tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer fx.close()

	r := &report{w: w, seed: seed, correct: true, valid: true, values: make(map[string]float64)}
	for _, q := range fx.queries {
		q.want = q.spec.reference(fx.rels)
		if q.warm != q.want {
			r.correct = false
			r.problems = append(r.problems, fmt.Sprintf("warm-up %s: %d rows, want %d (digest %x, want %x)",
				q.spec.name, q.warm.Rows, q.want.Rows, q.warm.Sum, q.want.Sum))
		}
	}

	gcNow()
	x := &runner{db: fx.db, tr: tr}
	ctx := context.Background()
	rt0 := readRuntime()
	smp := startSampler(10 * time.Millisecond)
	var samples []sample
	var elapsed time.Duration
	if w.clients > 0 {
		samples, elapsed = x.closedLoop(ctx, fx.queries, w.clients, d, seed)
	} else {
		n := max(int(w.rate*d.Seconds()), 1)
		samples, elapsed = x.openLoop(ctx, fx.queries, fx.ds.weights, w.rate, n, seed)
	}
	smp.finish()
	runtime.GC() // close the load phase's GC accounting before reading the counters
	rt1 := readRuntime()

	r.measure(samples, elapsed, w.slo)
	v := r.values
	v["setup_s"] = median(setups)
	v["peak_rss_mb"] = float64(smp.peakRSS) / 1e6
	// A host stall delays a few arrivals and the engine alike, and their
	// latency is charged from the schedule; a generator that sends the
	// median arrival late no longer offers the scheduled rate.
	if w.clients == 0 && r.lateP50 > maxLateP50 {
		r.valid = false
		r.problems = append(r.problems, fmt.Sprintf("generator fell behind: median arrival sent %v late (limit %v)", r.lateP50, maxLateP50))
	}
	if !traced {
		return r, nil
	}

	done := float64(max(r.samples, 1))
	v["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / max(rt1.totalCPU-rt0.totalCPU, 1e-9)
	v["runtime.allocs_per_query"] = float64(rt1.allocObjects-rt0.allocObjects) / done
	v["runtime.alloc_mb_per_query"] = float64(rt1.allocBytes-rt0.allocBytes) / 1e6 / done
	v["runtime.heap_peak_mb"] = float64(smp.peakHeap) / 1e6

	err = tr.phase("passes", -1, func(root int) error {
		mode := hierdb.OptimizerOff
		if w.analyze {
			mode = hierdb.OptimizerFull
		}
		tr.phase("pass.optimize", root, func(int) error {
			v["optimize.plan_us"] = float64(planPass(fx, mode)) / float64(time.Microsecond)
			return nil
		})
		chunk := sz.chunkRows
		if chunk == 0 {
			chunk = 4096
		}
		batches := batchesOf(fx, chunk)
		tr.phase("pass.spill", root, func(int) error {
			v["spill.encode_mb_s"], v["spill.decode_mb_s"] = codecPass(batches)
			return nil
		})
		tr.phase("pass.readchunk", root, func(int) error {
			per, allocs := readChunkPass(fx.files)
			v["store.readchunk_us"], v["store.allocs_per_chunk"] = float64(per)/float64(time.Microsecond), allocs
			return nil
		})
		return tr.phase("pass.preds", root, func(int) error {
			v["vec.preds_ns_per_row"] = predsPass(fx, batches)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}

	reps := float64(sz.setupReps)
	self := selfByName(tr.spans)
	queries := float64(max(x.seq.Load(), 1))
	v["hierdb.run_ms"] = ms(self["hierdb.run"]) / queries
	v["hierdb.ttfr_ms"] = ms(self["hierdb.ttfr"]) / queries
	v["hierdb.drain_ms"] = ms(self["hierdb.drain"]) / queries
	v["trace.cover_frac"] = queryCover(tr.spans)
	v["catalog.analyze_ms"] = ms(self["setup.analyze"]) / reps
	v["nodes.partition_ms"] = ms(self["setup.register"]) / reps
	v["setup.generate_ms"] = ms(self["setup.generate"]) / reps
	v["setup.warmup_ms"] = ms(self["setup.warmup"]) / reps
	if wr := self["setup.write"]; wr > 0 {
		v["store.write_mb_s"] = float64(fx.writeBytes) / 1e6 / (wr.Seconds() / reps)
	}
	v["trace.qps"], v["trace.p50_ms"] = v["qps"], v["p50_ms"]

	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, err
	}
	return r, nil
}

// measure derives the end-to-end metrics and the engine counters from
// the samples.
func (r *report) measure(samples []sample, elapsed time.Duration, slo time.Duration) {
	v := r.values
	var lats, admits []time.Duration
	var late []time.Duration
	var waited int
	var rows, acts, imb, inter, rounds, steals, stolen, bucketKB, redist, spillMB, parts, phases, scanned, skipped, diskMB float64
	for i := range samples {
		s := &samples[i]
		r.tally.attempted++
		late = append(late, s.late)
		switch {
		case s.rejected:
			r.tally.rejected++
			continue
		case s.err != nil:
			r.tally.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", s.kind, s.err))
			continue
		case s.wrong:
			r.tally.wrong++
			r.correct = false
			r.problems = append(r.problems, fmt.Sprintf("%s: wrong result (%d rows)", s.kind, s.rows))
			continue
		}
		if slo > 0 && s.lat > slo {
			r.tally.slow++
		}
		lats = append(lats, s.lat)
		st := s.stats
		admits = append(admits, st.AdmissionWait)
		if st.AdmissionWait > 0 {
			waited++
		}
		rows += float64(s.rows)
		acts += float64(st.Activations)
		imb += st.Imbalance()
		for _, n := range st.OpRows[:max(len(st.OpRows)-1, 0)] {
			inter += float64(n)
		}
		rounds += float64(st.StealRounds)
		steals += float64(st.Steals)
		stolen += float64(st.StolenActivations)
		bucketKB += float64(st.StolenBucketBytes) / 1024
		redist += float64(st.RowsRedistributed)
		spillMB += float64(st.SpilledBytes) / 1e6
		parts += float64(st.SpilledPartitions)
		phases += float64(st.SpillPhases)
		scanned += float64(st.ChunksScanned)
		skipped += float64(st.ChunksSkipped)
		diskMB += float64(st.DiskBytesRead) / 1e6
	}
	r.samples = len(lats)
	n := float64(max(len(lats), 1))
	v["qps"] = float64(len(lats)) / elapsed.Seconds()
	v["p50_ms"] = ms(percentile(lats, 0.50))
	v["p95_ms"] = ms(percentile(lats, 0.95))
	v["p99_ms"] = ms(percentile(lats, 0.99))
	v["fail_frac"] = r.tally.failFrac()
	v["slo_miss_frac"] = r.tally.sloMissFrac()
	v["hierdb.rows_per_query"] = rows / n
	v["exec.activations_per_query"] = acts / n
	v["exec.imbalance"] = imb / n
	v["exec.intermediate_rows_per_query"] = inter / n
	v["admit.wait_p99_ms"] = ms(percentile(admits, 0.99))
	v["admit.waited_frac"] = float64(waited) / n
	v["admit.rejected_frac"] = float64(r.tally.rejected) / float64(max(r.tally.attempted, 1))
	v["globallb.steal_rounds_per_query"] = rounds / n
	v["globallb.steals_per_query"] = steals / n
	if rounds > 0 {
		v["globallb.steal_hit_frac"] = steals / rounds
	}
	v["globallb.stolen_acts_per_query"] = stolen / n
	v["globallb.stolen_bucket_kb_per_query"] = bucketKB / n
	v["nodes.rows_redistributed_per_query"] = redist / n
	v["spill.mb_per_query"] = spillMB / n
	v["spill.partitions_per_query"] = parts / n
	v["spill.phases_per_query"] = phases / n
	v["store.chunks_scanned_per_query"] = scanned / n
	if scanned+skipped > 0 {
		v["store.skip_frac"] = skipped / (scanned + skipped)
	}
	v["store.disk_mb_per_query"] = diskMB / n
	if r.w.clients == 0 {
		r.lateP50 = percentile(late, 0.50)
		v["loadgen.late_p99_ms"] = ms(percentile(late, 0.99))
	}
}

// print writes the human-readable summary lines, then the result JSON
// as the last line.
func (r *report) print(out io.Writer, traced bool) {
	load := fmt.Sprintf("closed loop, %d clients", r.w.clients)
	if r.w.clients == 0 {
		load = fmt.Sprintf("open loop, %.0f arrivals/s, latency limit %v", r.w.rate, r.w.slo)
	}
	fmt.Fprintf(out, "# workload=%s seed=%d %s gomaxprocs=%d nproc=%d samples=%d attempted=%d valid=%v\n",
		r.w.name, r.seed, load, runtime.GOMAXPROCS(0), runtime.NumCPU(), r.samples, r.tally.attempted, r.valid)
	for _, m := range append(append([]metricDef(nil), endToEnd...), info...) {
		fmt.Fprintf(out, "# %s = %.4f %s\n", m.name, r.values[m.name], m.unit)
	}
	for _, p := range r.problems[:min(len(r.problems), 10)] {
		fmt.Fprintf(out, "# problem: %s\n", p)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   r.correct && r.valid,
		Attempted: r.tally.attempted,
		Failed:    r.tally.rejected + r.tally.failed + r.tally.wrong,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, m := range defs {
		res.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}
	b, _ := json.Marshal(res) // a struct of numbers and strings always marshals
	fmt.Fprintln(out, string(b))
}
