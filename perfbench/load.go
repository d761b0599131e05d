package main

// Load generation: closed-loop clients and an open-loop arrival
// schedule, both running every query through execute, which times the
// facade calls, digests the streamed rows and checks them.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hierdb"
	"hierdb/internal/xrand"
)

// benchQuery is one distinct query of a workload with its expected
// result, computed by the reference evaluator before timing starts.
type benchQuery struct {
	spec *planSpec
	want checksum // reference result
	warm checksum // the engine's warm-up result
}

// sample is one executed query.
type sample struct {
	kind     string
	lat      time.Duration // end - start, or end - scheduled arrival in the open loop
	late     time.Duration // open loop: how late the generator sent it
	run      time.Duration // Query.Run
	ttfr     time.Duration // Run returned -> first row
	drain    time.Duration // first row -> end of stream (Row boxing included)
	rows     int64
	rejected bool
	err      error
	wrong    bool
	stats    *hierdb.EngineStats
}

func (s *sample) ok() bool { return !s.rejected && s.err == nil && !s.wrong }

// runner executes queries against one DB, numbering them for spans.
type runner struct {
	db  *hierdb.DB
	tr  *tracer
	seq atomic.Int64
}

// execute runs q once: Run, first row, drain with digest, Stats. from
// is when the query was due (the open loop's scheduled arrival); zero
// means now.
func (x *runner) execute(ctx context.Context, q *benchQuery, from time.Time) sample {
	s := sample{kind: q.spec.kind}
	t0 := time.Now()
	if from.IsZero() {
		from = t0
	}
	s.late = t0.Sub(from)
	rows, err := q.spec.query(x.db).Run(ctx)
	t1 := time.Now()
	s.run = t1.Sub(t0)
	if err != nil {
		s.lat = t1.Sub(from)
		s.rejected = errors.Is(err, hierdb.ErrAdmissionQueueFull)
		if !s.rejected {
			s.err = err
		}
		return s
	}
	var cs checksum
	t2 := t1
	if rows.Next() {
		t2 = time.Now()
		cs.add(rows.Row())
		for rows.Next() {
			cs.add(rows.Row())
		}
	} else {
		t2 = time.Now()
	}
	t3 := time.Now()
	s.err = rows.Err()
	rows.Close()
	s.stats = rows.Stats()
	t4 := time.Now()
	s.ttfr, s.drain, s.lat = t2.Sub(t1), t3.Sub(t2), t4.Sub(from)
	s.rows = cs.Rows
	s.wrong = s.err == nil && cs != q.want
	if x.tr.on {
		qid := x.seq.Add(1)
		root := x.tr.add("query", -1, qid, t0, t4)
		x.tr.add("hierdb.run", root, qid, t0, t1)
		x.tr.add("hierdb.ttfr", root, qid, t1, t2)
		x.tr.add("hierdb.drain", root, qid, t2, t3)
		x.tr.add("hierdb.stats", root, qid, t3, t4)
	}
	return s
}

// closedLoop runs clients that each send their next query as soon as
// the previous one completes, until d has passed. Each client runs the
// whole mix in a fresh seeded shuffle every cycle, so which queries
// overlap varies through the run instead of locking into one pairing.
// It returns the samples and the measured wall time.
func (x *runner) closedLoop(ctx context.Context, qs []*benchQuery, clients int, d time.Duration, seed uint64) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := xrand.New(seed).Split(uint64(c) + 1)
			for time.Now().Before(deadline) {
				for _, i := range r.Perm(len(qs)) {
					if !time.Now().Before(deadline) {
						break
					}
					per[c] = append(per[c], x.execute(ctx, qs[i], time.Time{}))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed
}

// openLoop sends n arrivals at a fixed rate regardless of completions,
// each query drawn from qs by weight with the seeded generator. Each
// arrival's latency runs from its scheduled time, so a stall is charged
// to every arrival it delays.
func (x *runner) openLoop(ctx context.Context, qs []*benchQuery, weights []float64, rate float64, n int, seed uint64) ([]sample, time.Duration) {
	r := xrand.New(seed)
	pick := make([]int, n)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	for i := range pick {
		u := r.Float64() * total
		j := 0
		for ; j < len(weights)-1 && u >= weights[j]; j++ {
			u -= weights[j]
		}
		pick[i] = j
	}
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = x.execute(ctx, qs[pick[i]], due)
		}(i, due)
	}
	wg.Wait()
	return out, time.Since(start)
}
