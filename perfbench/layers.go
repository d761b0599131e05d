package main

// Per-layer measurements taken from outside the engine: a memory
// sampler around the load phase, Go runtime counters, and timed passes
// over the public functions of single modules (the planner, the spill
// codec, table-file chunk reads, predicate kernels) on the workload's
// own data.

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hierdb"
	"hierdb/internal/catalog"
	"hierdb/internal/exec"
	"hierdb/internal/spill"
	"hierdb/internal/store"
	"hierdb/internal/vec"
)

// sampler records peak RSS and peak live heap while the load runs.
type sampler struct {
	stop     chan struct{}
	done     sync.WaitGroup
	peakRSS  int64
	peakHeap uint64
}

func startSampler(every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		hs := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			s.peakRSS = max(s.peakRSS, rss())
			metrics.Read(hs)
			s.peakHeap = max(s.peakHeap, hs[0].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; its peaks are then final.
func (s *sampler) finish() {
	close(s.stop)
	s.done.Wait()
}

// rss reads the process's resident set size in bytes from procfs (0 if
// it is unavailable).
func rss() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// runtimeCounters are cumulative Go runtime counters.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// timeLoop repeats fn until at least minDur has passed (and at least
// once) and returns the mean time per call.
func timeLoop(minDur time.Duration, fn func()) time.Duration {
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < minDur {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// passMin is how long each layer pass repeats its work.
const passMin = 100 * time.Millisecond

// passRows caps the rows per relation a pass converts to batches.
const passRows = 1 << 16

// planPass times exec.Optimize under the workload's optimizer mode on
// each distinct plan and returns the mean time per plan.
func planPass(f *fixture, mode hierdb.OptimizerMode) time.Duration {
	statsOf := func(t *exec.Table) *catalog.TableStats { return f.stats[t.Name] }
	var total time.Duration
	for _, q := range f.queries {
		n := q.spec.node(f.db)
		total += timeLoop(passMin/time.Duration(len(f.queries)), func() { exec.Optimize(n, mode, statsOf) })
	}
	return total / time.Duration(len(f.queries))
}

// batchesOf cuts up to passRows of each relation into columnar batches
// of chunk rows, in name order.
func batchesOf(f *fixture, chunk int) map[string][]*vec.Batch {
	out := make(map[string][]*vec.Batch)
	for name, r := range f.rels {
		rows := r.rows[:min(len(r.rows), passRows)]
		for lo := 0; lo < len(rows); lo += chunk {
			out[name] = append(out[name], vec.FromRows(rows[lo:min(lo+chunk, len(rows))]))
		}
	}
	return out
}

// codecPass times spill.EncodeCols and spill.DecodeCols over the
// workload's batches and returns both rates in encoded MB/s.
func codecPass(batches map[string][]*vec.Batch) (encMBs, decMBs float64) {
	var all []*vec.Batch
	for _, name := range sortedKeys(batches) {
		all = append(all, batches[name]...)
	}
	enc := make([][]byte, len(all))
	var bytes int
	for i, b := range all {
		buf, err := spill.EncodeCols(nil, b)
		if err != nil {
			return 0, 0
		}
		enc[i] = buf
		bytes += len(buf)
	}
	var scratch []byte
	e := timeLoop(passMin, func() {
		for _, b := range all {
			scratch, _ = spill.EncodeCols(scratch[:0], b)
		}
	})
	d := timeLoop(passMin, func() {
		for i, b := range all {
			spill.DecodeCols(enc[i], b.N)
		}
	})
	mb := float64(bytes) / 1e6
	return mb / e.Seconds(), mb / d.Seconds()
}

// readChunkPass reads every chunk of the workload's table files through
// store.TableFile.ReadChunk and returns the mean time and heap
// allocations per chunk (zero without files).
func readChunkPass(files []string) (perChunk time.Duration, allocs float64) {
	var tfs []*store.TableFile
	chunks := 0
	for _, p := range files {
		tf, err := store.Open(p)
		if err != nil {
			return 0, 0
		}
		defer tf.Close()
		tfs = append(tfs, tf)
		chunks += tf.NumChunks()
	}
	if chunks == 0 {
		return 0, 0
	}
	readAll := func() {
		for _, tf := range tfs {
			for i := 0; i < tf.NumChunks(); i++ {
				tf.ReadChunk(i)
			}
		}
	}
	before := readRuntime().allocObjects
	readAll()
	allocs = float64(readRuntime().allocObjects-before) / float64(chunks)
	return timeLoop(passMin, readAll) / time.Duration(chunks), allocs
}

// predsPass applies each distinct plan's first-scan predicates with
// vec.ApplyPreds over that relation's batches and returns the mean time
// per input row (zero when no plan has predicates).
func predsPass(f *fixture, batches map[string][]*vec.Batch) float64 {
	var ns []float64
	var out []int32
	for _, q := range f.queries {
		preds := q.spec.first.preds
		bs := batches[q.spec.first.table]
		if len(preds) == 0 || len(bs) == 0 {
			continue
		}
		rows := 0
		for _, b := range bs {
			rows += b.N
		}
		d := timeLoop(passMin/time.Duration(len(f.queries)), func() {
			for _, b := range bs {
				out = vec.ApplyPreds(b, preds, nil, out)
			}
		})
		ns = append(ns, float64(d.Nanoseconds())/float64(rows))
	}
	return mean(ns)
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// gcNow collects and returns freed memory to the OS, so the load phase
// starts from the set-up's live heap alone.
func gcNow() { debug.FreeOSMemory() }
