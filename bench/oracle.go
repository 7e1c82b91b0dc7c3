package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"shark/internal/catalog"
	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/ml"
	"shark/internal/mr"
	"shark/internal/plan"
	"shark/internal/row"
	"shark/internal/sqlparse"
)

// oracle is the independent executor every SELECT is checked against:
// the Hive/MapReduce baseline of internal/mr running the same logical
// plan over the DFS text twin of each table. It shares the DFS with
// Shark and nothing else. Its cluster uses the Spark profile only so
// the check does not sleep through Hadoop's simulated launch costs;
// that changes when tasks start, not what they compute.
type oracle struct {
	cl   *cluster.Cluster
	hive *mr.Hive
	cat  *catalog.Catalog
}

func newOracle(e *env) (*oracle, error) {
	o := &oracle{
		cl:  cluster.New(cluster.Config{Workers: clusterWorkers, Slots: clusterSlots, Profile: cluster.SparkProfile()}),
		cat: catalog.New(),
	}
	o.hive = mr.NewHive(mr.NewEngine(o.cl, e.sess.FS, filepath.Join(e.dir, "mrshuffle")), mr.HiveOptions{})
	for name, tw := range e.twins {
		meta, err := e.sess.FS.Stat(tw.file)
		if err != nil {
			o.close()
			return nil, err
		}
		err = o.cat.Register(&catalog.Table{Name: name, Schema: tw.schema, File: tw.file, Format: dfs.Text, EstRows: meta.TotalRows()})
		if err != nil {
			o.close()
			return nil, err
		}
	}
	return o, nil
}

func (o *oracle) close() { o.cl.Close() }

// run executes sql with args bound through the Hive executor.
func (o *oracle) run(sql string, args row.Row) ([]row.Row, error) {
	st, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if len(args) > 0 {
		if st, err = sqlparse.Bind(st, args); err != nil {
			return nil, err
		}
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("oracle: %T is not a SELECT", st)
	}
	p, err := plan.Analyze(o.cat, sel)
	if err != nil {
		return nil, err
	}
	res, err := o.hive.Run(p)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// checkWorkload runs enough untimed rounds to execute every SELECT
// with every entry of its parameter list, bag-compares each result
// with the oracle's, and returns the digest the timed phase expects
// per statement and parameter index.
func checkWorkload(e *env, c *client) (map[*stmt][]digest, error) {
	o, err := newOracle(e)
	if err != nil {
		return nil, err
	}
	defer o.close()
	rounds := 1
	for _, s := range e.stmts {
		if len(s.args) > rounds {
			rounds = len(s.args)
		}
	}
	expected := make(map[*stmt][]digest)
	supersets := make(map[*stmt][]row.Row)
	for op := 0; op < rounds; op++ {
		for _, s := range e.stmts {
			x, err := c.exec(s, op, true)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", s.id, err)
			}
			rows := x.rows
			if s.sql == "" || s.kind == kindDDL {
				continue
			}
			n := len(s.args)
			if n == 0 {
				n = 1
			}
			if op >= n {
				continue
			}
			if s.kind == kindCustom {
				// sql2rdd hands its rows to an RDD; check the SELECT
				// it compiles by running it as a statement.
				res, err := e.sess.Exec(s.sql)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", s.id, err)
				}
				rows = res.Rows
			}
			var want []row.Row
			if s.superset == "" {
				want, err = o.run(s.sql, s.argsFor(op))
			} else {
				if supersets[s] == nil {
					supersets[s], err = o.run(s.superset, nil)
				}
				want = s.pick(supersets[s], s.argsFor(op))
			}
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", s.id, err)
			}
			if err := sameBag(rows, want); err != nil {
				return nil, fmt.Errorf("%s (args %v) differs from the Hive oracle: %w", s.id, s.argsFor(op), err)
			}
			expected[s] = append(expected[s], digestRows(rows))
		}
	}
	return expected, nil
}

// sameBag compares two results as multisets, floats to 1e-9 relative.
func sameBag(got, want []row.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	a, b := sortedCopy(got), sortedCopy(want)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %d columns, oracle has %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !sameValue(a[i][j], b[i][j]) {
				return fmt.Errorf("sorted row %d: %v, oracle has %v", i, a[i], b[i])
			}
		}
	}
	return nil
}

func sameValue(a, b any) bool {
	_, af := a.(float64)
	_, bf := b.(float64)
	if af || bf {
		x, ok1 := row.AsFloat(a)
		y, ok2 := row.AsFloat(b)
		return ok1 && ok2 && closeEnough(x, y)
	}
	return row.Equal(a, b)
}

// sortedCopy orders rows by their non-float columns first, so rows
// whose floats differ in the last bits still line up pairwise.
func sortedCopy(rows []row.Row) []row.Row {
	out := append([]row.Row(nil), rows...)
	cmp := func(x, y row.Row, floats bool) int {
		for j := 0; j < len(x) && j < len(y); j++ {
			_, xf := x[j].(float64)
			_, yf := y[j].(float64)
			if (xf || yf) != floats {
				continue
			}
			if x[j] == nil || y[j] == nil {
				if x[j] == nil && y[j] != nil {
					return -1
				}
				if x[j] != nil && y[j] == nil {
					return 1
				}
				continue
			}
			if c := row.Compare(x[j], y[j]); c != 0 {
				return c
			}
		}
		return 0
	}
	sort.Slice(out, func(i, j int) bool {
		if c := cmp(out[i], out[j], false); c != 0 {
			return c < 0
		}
		return cmp(out[i], out[j], true) < 0
	})
	return out
}

// logregReference is ml.LogisticRegression on one goroutine: the same
// start vector, gradient and step, summed in row order.
func logregReference(points []row.Row, dim, iters int, rate float64) ml.Vector {
	w := ml.InitWeights(dim, 42)
	for it := 0; it < iters; it++ {
		grad := ml.Zeros(dim)
		for _, r := range points {
			var dot float64
			y := r[0].(float64)
			for j := 0; j < dim; j++ {
				dot += w[j] * r[j+1].(float64)
			}
			scale := (1/(1+math.Exp(-y*dot)) - 1) * y
			for j := 0; j < dim; j++ {
				grad[j] += scale * r[j+1].(float64)
			}
		}
		w.AddScaled(grad, -rate)
	}
	return w
}

func sameVector(got, want ml.Vector) error {
	if len(got) != len(want) {
		return fmt.Errorf("logreg: %d weights, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !closeEnough(got[i], want[i]) {
			return fmt.Errorf("logreg: weight %d is %v, reference has %v", i, got[i], want[i])
		}
	}
	return nil
}
