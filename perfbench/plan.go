package main

// Query specifications, their translation to the hierdb facade, and the
// naive reference evaluator every timed result is checked against.

import (
	"math"

	"hierdb"
	"hierdb/internal/exec"
)

// Query kinds of the workload mixes.
const (
	kindJoin  = "join"
	kindGroup = "group"
	kindPoint = "point"
)

// scanSpec is one base-relation scan with optional column predicates.
type scanSpec struct {
	table string
	preds []hierdb.Pred
}

// joinStep attaches one build relation to the accumulated probe row on
// accumulated[probeCol] = build[buildCol].
type joinStep struct {
	build    scanSpec
	probeCol int
	buildCol int
}

// groupSpec folds the plan's output rows by one column: count(*) and
// sum(sumCol).
type groupSpec struct {
	keyCol, sumCol int
}

// planSpec is one distinct query of a workload: a left-deep join chain
// over scans, optionally folded by a group-by.
type planSpec struct {
	name   string
	kind   string
	first  scanSpec
	joins  []joinStep
	group  *groupSpec
	tenant string
}

// query builds the plan with the facade's fluent builder.
func (p *planSpec) query(db *hierdb.DB) *hierdb.Query {
	scan := func(s scanSpec) *hierdb.Query {
		q := db.Scan(s.table)
		if len(s.preds) > 0 {
			q = q.Where(s.preds...)
		}
		return q
	}
	q := scan(p.first)
	for _, j := range p.joins {
		q = q.Join(scan(j.build), hierdb.KeyCol(j.probeCol), hierdb.KeyCol(j.buildCol))
	}
	if g := p.group; g != nil {
		col := g.sumCol
		q = q.GroupBy(hierdb.KeyCol(g.keyCol),
			hierdb.Aggregation{Func: hierdb.Count},
			hierdb.Aggregation{Func: hierdb.Sum, Arg: func(r hierdb.Row) float64 { return float64(r[col].(int)) }})
	}
	if p.tenant != "" {
		q = q.WithTenant(p.tenant)
	}
	return q
}

// node builds the same plan (without the group-by fold) as an exec
// tree, for timing the planner on it directly.
func (p *planSpec) node(db *hierdb.DB) exec.Node {
	scan := func(s scanSpec) exec.Node {
		t, _ := db.Table(s.table)
		return &exec.Scan{Table: t, Preds: s.preds}
	}
	n := scan(p.first)
	for _, j := range p.joins {
		n = &exec.Join{Build: scan(j.build), Probe: n, BuildKey: exec.KeyCol(j.buildCol), ProbeKey: exec.KeyCol(j.probeCol)}
	}
	return n
}

// checksum is an order-independent digest of a result multiset: the
// row count and the wrapping sum of per-row hashes.
type checksum struct {
	Rows int64
	Sum  uint64
}

func (c *checksum) add(r hierdb.Row) {
	c.Rows++
	c.Sum += rowHash(r)
}

// rowHash hashes one row, column order significant. Numbers hash by
// value, not by Go type, so an engine count (int64) or integral sum
// (float64) matches the reference's int.
func rowHash(r hierdb.Row) uint64 {
	h := uint64(len(r)) * 0x9e3779b97f4a7c15
	for _, v := range r {
		h = mix(h ^ valHash(v))
	}
	return h
}

func valHash(v any) uint64 {
	switch x := v.(type) {
	case int:
		return mix(uint64(x))
	case int32:
		return mix(uint64(x))
	case int64:
		return mix(uint64(x))
	case uint64:
		return mix(x)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<62 {
			return mix(uint64(int64(x)))
		}
		return mix(math.Float64bits(x) ^ 0x5bd1e995)
	case string:
		h := uint64(14695981039346656037) // FNV-1a
		for i := 0; i < len(x); i++ {
			h ^= uint64(x[i])
			h *= 1099511628211
		}
		return h
	case bool:
		if x {
			return 0x2545f4914f6cdd1d
		}
		return 0x1b873593
	case nil:
		return 0x7f4a7c15
	}
	return 0x3c6ef372 // no other column type is generated
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// reference evaluates the plan with a naive row-at-a-time interpreter
// over the generated rows — map-backed hash joins, depth-first so no
// intermediate result is materialized — and digests the result the way
// the benchmark digests the engine's stream. Output rows follow the
// engine's convention: probe columns, then build columns.
func (p *planSpec) reference(rels map[string]*relation) checksum {
	hts := make([]map[any][]hierdb.Row, len(p.joins))
	width := len(rels[p.first.table].cols)
	for i, j := range p.joins {
		ht := make(map[any][]hierdb.Row)
		for _, r := range rels[j.build.table].rows {
			if match(r, j.build.preds) {
				ht[r[j.buildCol]] = append(ht[r[j.buildCol]], r)
			}
		}
		hts[i] = ht
		width += len(rels[j.build.table].cols)
	}
	type agg struct{ count, sum int }
	var (
		cs     checksum
		groups map[any]*agg
	)
	if p.group != nil {
		groups = make(map[any]*agg)
	}
	emit := func(r hierdb.Row) {
		if p.group == nil {
			cs.add(r)
			return
		}
		k := r[p.group.keyCol]
		a := groups[k]
		if a == nil {
			a = &agg{}
			groups[k] = a
		}
		a.count++
		a.sum += r[p.group.sumCol].(int)
	}
	buf := make(hierdb.Row, 0, width)
	var walk func(d int, row hierdb.Row)
	walk = func(d int, row hierdb.Row) {
		if d == len(p.joins) {
			emit(row)
			return
		}
		for _, br := range hts[d][row[p.joins[d].probeCol]] {
			walk(d+1, append(row, br...))
		}
	}
	for _, r := range rels[p.first.table].rows {
		if match(r, p.first.preds) {
			walk(0, append(buf[:0], r...))
		}
	}
	for k, a := range groups {
		cs.add(hierdb.Row{k, a.count, a.sum})
	}
	return cs
}

// match evaluates int-column predicates the way Where does (ANDed).
func match(r hierdb.Row, preds []hierdb.Pred) bool {
	for _, p := range preds {
		v, ok := r[p.Col].(int)
		c, cok := p.Val.(int)
		if !ok || !cok {
			return false
		}
		var hold bool
		switch p.Op {
		case hierdb.Eq:
			hold = v == c
		case hierdb.Ne:
			hold = v != c
		case hierdb.Lt:
			hold = v < c
		case hierdb.Le:
			hold = v <= c
		case hierdb.Gt:
			hold = v > c
		case hierdb.Ge:
			hold = v >= c
		}
		if !hold {
			return false
		}
	}
	return true
}
