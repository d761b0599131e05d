package main

// Workload data: relations and multi-join queries drawn with the paper's
// §5.1.2 methodology (internal/querygen: a random acyclic predicate
// graph, size-class cardinalities, per-edge selectivities targeting
// 0.5-1.5x the larger operand), gated on estimated work as the paper
// gates on sequential response time, and materialized as seeded
// synthetic rows at a workload-chosen scale.

import (
	"fmt"
	"math"

	"hierdb"
	"hierdb/internal/querygen"
	"hierdb/internal/xrand"
)

// relation is one materialized table: column 0 is a dense ascending row
// id, then one int key column per incident join edge, then an int
// value column and a short string payload.
type relation struct {
	name string
	cols []string
	rows []hierdb.Row
}

// genParams sizes one family of generated queries.
type genParams struct {
	relations int        // relations per query
	cardDiv   int64      // scales the paper's 10K-2M cardinalities down
	classW    [3]float64 // small/medium/large size-class weights
	// target is the estimated rows processed per query (base rows plus
	// the intermediate results of the best left-deep order); queries
	// outside target*(1±window) are redrawn, so every seed gets queries
	// of about the same cost.
	target float64
	window float64
	// probeLargest starts the literal plan at the largest relation
	// instead of relation 0.
	probeLargest bool
}

// genQuery is one generated query with its materialized relations.
type genQuery struct {
	rels []*relation
	// joins is the literal left-deep plan: a BFS over the predicate tree
	// from relation first, each step attaching one relation along one
	// edge.
	first int
	joins []joinStep
}

// payloads is the string payload pool (rows share the strings, so
// generation allocates no per-row string).
var payloads = func() []string {
	p := make([]string, 64)
	for i := range p {
		p[i] = fmt.Sprintf("payload-%02d", i)
	}
	return p
}()

// shape is the scaled structure of a querygen query: cardinalities and
// per-edge key domains.
type shape struct {
	q       *querygen.Query
	cards   []int
	domains []int
}

func scaleQuery(q *querygen.Query, div int64) shape {
	s := shape{q: q, cards: make([]int, len(q.Relations)), domains: make([]int, len(q.Edges))}
	for i, rel := range q.Relations {
		s.cards[i] = max(int(rel.Cardinality/div), 10)
	}
	for ei, e := range q.Edges {
		a, b := float64(q.Relations[e.A].Cardinality), float64(q.Relations[e.B].Cardinality)
		ratio := e.Selectivity * a * b / math.Max(a, b) // the §5.1.2 [0.5,1.5] draw
		lo, hi := min(s.cards[e.A], s.cards[e.B]), max(s.cards[e.A], s.cards[e.B])
		// A key domain of lo/ratio over uniform keys reproduces the
		// drawn result size; bounding the per-row fan-out at 2 keeps
		// chains from compounding past the workload's scale.
		s.domains[ei] = max(int(float64(lo)/ratio), (hi+1)/2, 1)
	}
	return s
}

// bestCost estimates the rows a left-deep plan processes in the best
// connected join order: every base row once plus every prefix result,
// with E|S| = prod(card) / prod(domain) over the subtree S.
func (s shape) bestCost() float64 {
	n := len(s.cards)
	size := make([]float64, 1<<n)
	for set := 1; set < 1<<n; set++ {
		v := 1.0
		for i := 0; i < n; i++ {
			if set&(1<<i) != 0 {
				v *= float64(s.cards[i])
			}
		}
		for ei, e := range s.q.Edges {
			if set&(1<<e.A) != 0 && set&(1<<e.B) != 0 {
				v /= float64(s.domains[ei])
			}
		}
		size[set] = v
	}
	connected := func(set int) bool { // a subtree of the predicate tree
		edges, nodes := 0, 0
		for i := 0; i < n; i++ {
			if set&(1<<i) != 0 {
				nodes++
			}
		}
		for _, e := range s.q.Edges {
			if set&(1<<e.A) != 0 && set&(1<<e.B) != 0 {
				edges++
			}
		}
		return edges == nodes-1
	}
	best := make([]float64, 1<<n)
	for set := 1; set < 1<<n; set++ {
		if set&(set-1) == 0 {
			continue // single relation: no join yet
		}
		best[set] = math.Inf(1)
		if !connected(set) {
			continue
		}
		for i := 0; i < n; i++ {
			rest := set &^ (1 << i)
			if set&(1<<i) != 0 && connected(rest) && best[rest] < math.Inf(1) {
				best[set] = math.Min(best[set], best[rest]+size[set])
			}
		}
	}
	base := 0.0
	for _, c := range s.cards {
		base += float64(c)
	}
	return base + best[1<<n-1]
}

// generate draws one gated query shape with shapeR and materializes its
// relations with dataR. keyOf maps a drawn key (0..domain-1) to the
// stored key value; nil stores it unchanged.
func generate(shapeR, dataR *xrand.Rand, name string, p genParams, keyOf func(int) int) *genQuery {
	accept := func(q *querygen.Query) (bool, float64) {
		s := scaleQuery(q, p.cardDiv)
		d := math.Abs(math.Log(s.bestCost() / p.target))
		return d <= math.Log1p(p.window), d
	}
	q := querygen.GenerateGated(shapeR, name, querygen.Params{Relations: p.relations, Nodes: 1, ClassWeights: p.classW}, 5000, accept)
	sh := scaleQuery(q, p.cardDiv)
	g := &genQuery{}

	n := len(q.Relations)
	incident := make([][]int, n)
	for ei, e := range q.Edges {
		incident[e.A] = append(incident[e.A], ei)
		incident[e.B] = append(incident[e.B], ei)
	}
	keyCol := make([]map[int]int, n)
	for i := 0; i < n; i++ {
		keyCol[i] = make(map[int]int)
		cols := []string{"id"}
		for _, ei := range incident[i] {
			keyCol[i][ei] = len(cols)
			cols = append(cols, fmt.Sprintf("k%d", ei))
		}
		cols = append(cols, "val", "pay")
		tr := dataR.Split(uint64(i) + 1)
		rel := &relation{name: fmt.Sprintf("%s_r%d", name, i), cols: cols, rows: make([]hierdb.Row, sh.cards[i])}
		for row := range rel.rows {
			vals := make(hierdb.Row, 0, len(cols))
			vals = append(vals, row)
			for _, ei := range incident[i] {
				k := tr.Intn(sh.domains[ei])
				if keyOf != nil {
					k = keyOf(k)
				}
				vals = append(vals, k)
			}
			vals = append(vals, tr.Intn(1000), payloads[tr.Intn(len(payloads))])
			rel.rows[row] = vals
		}
		g.rels = append(g.rels, rel)
	}

	// Literal left-deep order: BFS over the predicate tree from the first
	// relation, tracking each relation's column offset in the accumulated
	// row.
	if p.probeLargest {
		for i, rel := range g.rels {
			if len(rel.rows) > len(g.rels[g.first].rows) {
				g.first = i
			}
		}
	}
	adj := make([][][2]int, n) // (neighbor, edge)
	for ei, e := range q.Edges {
		adj[e.A] = append(adj[e.A], [2]int{e.B, ei})
		adj[e.B] = append(adj[e.B], [2]int{e.A, ei})
	}
	offset := make([]int, n)
	seen := make([]bool, n)
	seen[g.first] = true
	order := []int{g.first}
	width := len(g.rels[g.first].cols)
	for qi := 0; qi < len(order); qi++ {
		v := order[qi]
		for _, ne := range adj[v] {
			w, ei := ne[0], ne[1]
			if seen[w] {
				continue
			}
			seen[w] = true
			order = append(order, w)
			g.joins = append(g.joins, joinStep{
				build:    scanSpec{table: g.rels[w].name},
				probeCol: offset[v] + keyCol[v][ei],
				buildCol: keyCol[w][ei],
			})
			offset[w] = width
			width += len(g.rels[w].cols)
		}
	}
	return g
}

// plan returns the query's literal join plan with optional predicates on
// the first (probe) relation.
func (g *genQuery) plan(name string, preds ...hierdb.Pred) *planSpec {
	return &planSpec{
		name:  name,
		kind:  kindJoin,
		first: scanSpec{table: g.rels[g.first].name, preds: preds},
		joins: g.joins,
	}
}
