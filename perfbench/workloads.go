package main

// The four workloads: what data each generates, how the engine is
// opened over it, and how it is loaded. README.md records why each one
// exists and which layers it exercises and bypasses.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hierdb"
	"hierdb/internal/exec"
	"hierdb/internal/store"
	"hierdb/internal/xrand"
)

// size scales one workload; every workload has a full size and a tiny
// one for the smoke tests.
type size struct {
	gen       genParams // join queries
	groupGen  genParams // the relations under group-by queries
	joins     int       // distinct join queries
	groups    int       // distinct group-by queries
	points    int       // distinct point lookups (serve-mix)
	setupReps int       // set-up repetitions; setup_s is their median
	chunkRows int       // table-file row-group size (disk-spill)
}

// dataset is one workload's generated input: relations and the distinct
// queries over them (with open-loop weights, when the workload has
// them), plus any engine setting derived from the data.
type dataset struct {
	rels    []*relation
	specs   []*planSpec
	weights []float64
	budget  int64 // per-node memory budget in bytes (0 = ungoverned)
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	clients int           // closed-loop clients; 0 means the open loop
	rate    float64       // open-loop arrivals per second
	slo     time.Duration // open-loop latency limit
	disk    bool          // register relations FromFile
	analyze bool
	full    size
	tiny    size
	gen     func(seed uint64, sz size) *dataset
	opts    func(ds *dataset, spillDir string) []hierdb.Option
}

// Sizes shared by the generated relations: scaled paper cardinalities
// (Small 10K-20K, Medium 100K-200K, Large 1M-2M tuples before cardDiv).
var workloads = []*workload{
	{
		name:    "olap-mem",
		clients: 2,
		analyze: true,
		full: size{
			gen:      genParams{relations: 4, cardDiv: 40, classW: [3]float64{1, 2, 1}, target: 125_000, window: 0.1},
			groupGen: genParams{relations: 2, cardDiv: 40, classW: [3]float64{0, 1, 1}, target: 75_000, window: 0.1},
			joins:    4, groups: 1, setupReps: 5,
		},
		tiny: size{
			gen:      genParams{relations: 3, cardDiv: 1000, classW: [3]float64{1, 1, 1}, target: 3000, window: 0.5},
			groupGen: genParams{relations: 2, cardDiv: 1000, classW: [3]float64{1, 1, 1}, target: 2000, window: 0.5},
			joins:    2, groups: 1, setupReps: 1,
		},
		gen: genJoinsAndGroups(false, false),
		opts: func(*dataset, string) []hierdb.Option {
			return []hierdb.Option{hierdb.WithWorkers(2), hierdb.WithOptimizer(hierdb.OptimizerFull)}
		},
	},
	{
		name:    "disk-spill",
		clients: 2,
		disk:    true,
		full: size{
			gen:   genParams{relations: 2, cardDiv: 50, classW: [3]float64{0, 1, 1}, target: 60_000, window: 0.1, probeLargest: true},
			joins: 3, setupReps: 5, chunkRows: 1024,
		},
		tiny: size{
			gen:   genParams{relations: 2, cardDiv: 200, classW: [3]float64{0, 1, 1}, target: 15_000, window: 0.5, probeLargest: true},
			joins: 2, setupReps: 1, chunkRows: 512,
		},
		gen: genJoinsAndGroups(false, true),
		opts: func(ds *dataset, spillDir string) []hierdb.Option {
			return []hierdb.Option{hierdb.WithWorkers(2), hierdb.WithMemory(ds.budget),
				hierdb.WithMemoryBroker(true), hierdb.WithSpillDir(spillDir)}
		},
	},
	{
		name:    "skew-4node",
		clients: 1,
		full: size{
			gen:   genParams{relations: 3, cardDiv: 40, classW: [3]float64{1, 1, 1}, target: 100_000, window: 0.1},
			joins: 3, setupReps: 5,
		},
		tiny: size{
			gen:   genParams{relations: 2, cardDiv: 100, classW: [3]float64{0, 0, 1}, target: 40_000, window: 0.5},
			joins: 1, setupReps: 1,
		},
		gen: genJoinsAndGroups(true, false),
		opts: func(*dataset, string) []hierdb.Option {
			return []hierdb.Option{hierdb.WithNodes(skewNodes), hierdb.WithWorkers(1), hierdb.WithStripes(skewStripes)}
		},
	},
	{
		name:    "serve-mix",
		rate:    300,
		slo:     25 * time.Millisecond,
		analyze: true,
		full: size{
			gen:      genParams{relations: 3, cardDiv: 1000, classW: [3]float64{1, 1, 1}, target: 3000, window: 0.2},
			groupGen: genParams{relations: 2, cardDiv: 1000, classW: [3]float64{1, 1, 1}, target: 2000, window: 0.2},
			joins:    2, groups: 1, points: 32, setupReps: 15,
		},
		tiny: size{
			gen:      genParams{relations: 3, cardDiv: 1000, classW: [3]float64{1, 1, 1}, target: 3000, window: 0.5},
			groupGen: genParams{relations: 2, cardDiv: 1000, classW: [3]float64{1, 1, 1}, target: 2000, window: 0.5},
			joins:    1, groups: 1, points: 4, setupReps: 1,
		},
		gen: genServe,
		opts: func(ds *dataset, spillDir string) []hierdb.Option {
			return []hierdb.Option{hierdb.WithWorkers(2), hierdb.WithOptimizer(hierdb.OptimizerFull),
				hierdb.WithMaxConcurrentQueries(2), hierdb.WithAdmissionQueue(serveQueue),
				hierdb.WithMemory(ds.budget), hierdb.WithMemoryBroker(true), hierdb.WithSpillDir(spillDir)}
		},
	},
}

const (
	skewNodes   = 4
	skewStripes = 8   // per node; fixes the key -> owner routing hotKeys relies on
	serveQueue  = 256 // absorbs a ~0.8 s host stall at 300 arrivals/s without shedding
	serveBudget = 256 << 10
)

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// shapeSeed fixes the query shapes querygen draws (predicate graphs,
// size classes, selectivities): every seed runs the same queries over
// different rows, keys, predicate constants and arrivals, so runs with
// different seeds measure the same work.
const shapeSeed = 1996

// genJoinsAndGroups generates sz.joins join queries and sz.groups
// group-by-over-join queries, each over its own relations. With skewed
// set, every join key is owned by node 0 (see hotKeys). With ranged
// set, each join query's first relation gets an id range predicate
// (skipping 40%, 30% or 20% of it), and the per-node memory budget is a
// fifth of the median largest build side: small enough that every join
// spills, large enough that one level of Grace partitioning (fan-out 8)
// fits without recursing.
func genJoinsAndGroups(skewed, ranged bool) func(uint64, size) *dataset {
	return func(seed uint64, sz size) *dataset {
		var keyOf func(int) int
		if skewed {
			keyOf = hotKeys()
		}
		ds := &dataset{}
		shapes, r := xrand.New(shapeSeed), xrand.New(seed)
		var builds []int64
		for i := 0; i < sz.joins; i++ {
			g := generate(shapes.Split(uint64(100+i)), r.Split(uint64(100+i)), fmt.Sprintf("q%d", i), sz.gen, keyOf)
			ds.rels = append(ds.rels, g.rels...)
			var preds []hierdb.Pred
			if ranged {
				cut := len(g.rels[g.first].rows) * (6 + i%3) / 10
				preds = []hierdb.Pred{{Col: 0, Op: hierdb.Lt, Val: cut}}
			}
			ds.specs = append(ds.specs, g.plan(fmt.Sprintf("q%d", i), preds...))
			var big int64
			for ri, rel := range g.rels {
				if ri != g.first {
					big = max(big, relBytes(rel))
				}
			}
			builds = append(builds, big)
		}
		for i := 0; i < sz.groups; i++ {
			g := generate(shapes.Split(uint64(200+i)), r.Split(uint64(200+i)), fmt.Sprintf("g%d", i), sz.groupGen, keyOf)
			ds.rels = append(ds.rels, g.rels...)
			ds.specs = append(ds.specs, groupPlan(g, fmt.Sprintf("g%d", i)))
		}
		if ranged {
			ds.budget = int64(medianInt(builds)) / 5
		}
		return ds
	}
}

// groupPlan folds g's join by the first relation's first key column,
// counting rows and summing its val column.
func groupPlan(g *genQuery, name string) *planSpec {
	p := g.plan(name)
	p.kind = kindGroup
	first := g.rels[g.first]
	p.group = &groupSpec{keyCol: 1, sumCol: len(first.cols) - 2}
	return p
}

// genServe generates serve-mix: point lookups on the largest relation,
// small multi-joins, a group-by over a join and one over a scan, with
// an arrival mix of point 0.6, join 0.25, group 0.15 (so the median
// falls inside the point lookups, not on a boundary between kinds),
// alternating two tenants across the distinct queries.
func genServe(seed uint64, sz size) *dataset {
	ds := &dataset{budget: serveBudget}
	shapes, r := xrand.New(shapeSeed), xrand.New(seed)
	var joins, groups []*planSpec
	var largest *relation
	for i := 0; i < sz.joins; i++ {
		g := generate(shapes.Split(uint64(100+i)), r.Split(uint64(100+i)), fmt.Sprintf("s%d", i), sz.gen, nil)
		ds.rels = append(ds.rels, g.rels...)
		joins = append(joins, g.plan(fmt.Sprintf("s%d", i)))
		for _, rel := range g.rels {
			if largest == nil || len(rel.rows) > len(largest.rows) {
				largest = rel
			}
		}
	}
	for i := 0; i < sz.groups; i++ {
		g := generate(shapes.Split(uint64(200+i)), r.Split(uint64(200+i)), fmt.Sprintf("sg%d", i), sz.groupGen, nil)
		ds.rels = append(ds.rels, g.rels...)
		groups = append(groups, groupPlan(g, fmt.Sprintf("sg%d", i)))
		scan := &planSpec{name: fmt.Sprintf("sg%d-scan", i), kind: kindGroup,
			first: scanSpec{table: largest.name},
			group: &groupSpec{keyCol: 1, sumCol: len(largest.cols) - 2}}
		groups = append(groups, scan)
	}
	pr := r.Split(300)
	add := func(ps []*planSpec, share float64) {
		for _, p := range ps {
			p.tenant = fmt.Sprintf("t%d", len(ds.specs)%2)
			ds.specs = append(ds.specs, p)
			ds.weights = append(ds.weights, share/float64(len(ps)))
		}
	}
	var points []*planSpec
	for i := 0; i < sz.points; i++ {
		id := pr.Intn(len(largest.rows))
		points = append(points, &planSpec{name: fmt.Sprintf("point%d", i), kind: kindPoint,
			first: scanSpec{table: largest.name, preds: []hierdb.Pred{{Col: 0, Op: hierdb.Eq, Val: id}}}})
	}
	add(points, 0.6)
	add(joins, 0.25)
	add(groups, 0.15)
	return ds
}

// hotKeys returns a key mapping that sends drawn key k to the k-th
// integer whose owner on a skewNodes x skewStripes engine is node 0, so
// node 0 owns every join key and all probe work is routed there.
func hotKeys() func(int) int {
	var hot []int
	return func(k int) int {
		for len(hot) <= k {
			v := 0
			if len(hot) > 0 {
				v = hot[len(hot)-1] + 1
			}
			for exec.OwnerNode(v, skewNodes, skewStripes) != 0 {
				v++
			}
			hot = append(hot, v)
		}
		return hot[k]
	}
}

// relBytes is a relation's resident size as the engine's memory
// governor charges it: a row header, an interface pair per column and
// the payload string's bytes.
func relBytes(r *relation) int64 {
	return int64(len(r.rows)) * int64(24+16*len(r.cols)+len(payloads[0]))
}

func medianInt(xs []int64) int64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return int64(median(f))
}

// fixture is one set-up workload: an open DB over the dataset.
type fixture struct {
	db         *hierdb.DB
	ds         *dataset
	rels       map[string]*relation
	queries    []*benchQuery
	stats      map[string]*hierdb.TableStats
	files      []string // table files (disk workloads)
	writeBytes int64
	dir        string // files and spill directories, removed by close
}

func (f *fixture) close() {
	f.db.Close()
	os.RemoveAll(f.dir)
}

// setup generates the data, writes table files when the workload is
// disk-backed, opens the DB, registers (partitioning on a multi-node
// DB) and analyzes every relation, and warms up with one run of every
// distinct query. Each phase is a span under one "setup" span.
func (w *workload) setup(seed uint64, sz size, dir string, tr *tracer) (*fixture, error) {
	f := &fixture{dir: dir, rels: make(map[string]*relation), stats: make(map[string]*hierdb.TableStats)}
	err := tr.phase("setup", -1, func(root int) error {
		tr.phase("setup.generate", root, func(int) error {
			f.ds = w.gen(seed, sz)
			return nil
		})
		for _, r := range f.ds.rels {
			f.rels[r.name] = r
		}
		if err := os.MkdirAll(filepath.Join(dir, "spill"), 0o755); err != nil {
			return err
		}
		if w.disk {
			err := tr.phase("setup.write", root, func(int) error {
				for _, r := range f.ds.rels {
					path := filepath.Join(dir, r.name+".hdb")
					if err := store.WriteTable(path, r.cols, sz.chunkRows, r.rows); err != nil {
						return err
					}
					st, err := os.Stat(path)
					if err != nil {
						return err
					}
					f.files = append(f.files, path)
					f.writeBytes += st.Size()
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		f.db = hierdb.Open(w.opts(f.ds, filepath.Join(dir, "spill"))...)
		err := tr.phase("setup.register", root, func(int) error {
			for i, r := range f.ds.rels {
				src := hierdb.FromTable(&hierdb.Table{Name: r.name, Cols: r.cols, Rows: r.rows})
				if w.disk {
					src = hierdb.FromFile(f.files[i])
				}
				if err := f.db.Register(r.name, src); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if w.analyze {
			err := tr.phase("setup.analyze", root, func(int) error {
				for _, r := range f.ds.rels {
					st, err := f.db.Analyze(r.name)
					if err != nil {
						return err
					}
					f.stats[r.name] = st
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		for _, p := range f.ds.specs {
			f.queries = append(f.queries, &benchQuery{spec: p})
		}
		return tr.phase("setup.warmup", root, func(int) error {
			for _, q := range f.queries {
				rows, err := q.spec.query(f.db).Run(context.Background())
				if err != nil {
					return fmt.Errorf("warm-up %s: %w", q.spec.name, err)
				}
				for rows.Next() {
					q.warm.add(rows.Row())
				}
				if err := rows.Close(); err != nil {
					return fmt.Errorf("warm-up %s: %w", q.spec.name, err)
				}
			}
			return nil
		})
	})
	if err != nil && f.db != nil {
		f.close()
	}
	return f, err
}
