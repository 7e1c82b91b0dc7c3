package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"shark/internal/exec"
	"shark/internal/plan"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/sqlparse"
	"shark/internal/wire"
)

// The traced pass. Nothing inside the program records spans for the
// benchmark: the benchmark replays rounds through its own pipeline,
// calling each module's public functions in the order a statement
// crosses them, and records a span around every call. Spans stay in
// memory and are written out when the run ends.

// span is one timed call. Parent indexes the span that caused it (-1
// for a root); spans of one round share Op. Structural spans ("op",
// "stmt:<id>") have no dot in their name; every other span is
// "<module>.<function>" and its self time belongs to that module.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op_id"`
	// Placed marks a span whose duration was measured by the engine
	// (a NodeStats blocking segment, an IterTimer entry) and whose
	// start the benchmark assigned: such spans are laid end to end
	// inside their parent.
	Placed bool `json:"placed,omitempty"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

func (t *tracer) do(name string, parent, op int, f func()) {
	i := t.begin(name, parent, op)
	f()
	t.end(i)
}

// place lays engine-measured durations end to end inside parent,
// starting where the parent starts and never past its end.
func (t *tracer) place(parent int, names []string, durs []time.Duration) {
	at, limit := t.spans[parent].Start, t.spans[parent].End
	for i, d := range durs {
		end := at + int64(d)
		if end > limit {
			end = limit
		}
		t.spans = append(t.spans, span{Name: names[i], Start: at, End: end, Parent: parent, Op: t.spans[parent].Op, Placed: true})
		at = end
	}
}

// self returns each span's duration minus the part of it its children
// cover.
func (t *tracer) self() []int64 {
	out := make([]int64, len(t.spans))
	for i, s := range t.spans {
		out[i] += s.End - s.Start
		if s.Parent >= 0 {
			out[s.Parent] -= s.End - s.Start
		}
	}
	return out
}

// selfTimes sums the self times per span name.
func (t *tracer) selfTimes() map[string]int64 {
	out := make(map[string]int64)
	for i, self := range t.self() {
		out[t.spans[i].Name] += self
	}
	return out
}

func (t *tracer) write(path string, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workload, "seed": seed, "self_ns_by_name": t.selfTimes(), "spans": t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay is what the traced rounds observed beyond their spans.
type replay struct {
	opMS []float64 // wall of each replayed round

	// Per operator kind (Scan, Filter, …): master-blocking wall from
	// RunAnalyzeCtx's NodeStats, summed over every replayed statement.
	opWallNS map[string]int64
	// Sums of Result.Stats over every replayed statement.
	shuffleBytes, scannedParts, prunedParts, resultRows int64

	// plans and results keep each SELECT's last analyzed plan and rows
	// for the stand-alone probes.
	plans   map[*stmt]plan.Node
	results map[*stmt][]row.Row
}

// operatorKinds are the plan operators exec.op_wall_frac reports.
var operatorKinds = []string{"Scan", "Filter", "Project", "Aggregate", "Join", "Sort", "Limit"}

func operatorKind(label string) string {
	if i := strings.IndexByte(label, '('); i > 0 {
		label = label[:i]
	}
	for _, k := range operatorKinds {
		if label == k {
			return k
		}
	}
	return "Other"
}

// keepShuffles lists the shuffles a cached table's lineage still
// reads; a finished statement must not release those.
func keepShuffles(e *env) map[int]bool {
	keep := make(map[int]bool)
	for _, name := range e.sess.Cat.List() {
		if t, err := e.sess.Cat.Get(name); err == nil && t.Mem != nil {
			for _, id := range rdd.LineageShuffleIDs(t.Mem.RDD) {
				keep[id] = true
			}
		}
	}
	return keep
}

// runPlan executes an analyzed plan as one scheduler job of the
// session, the way core.Session does around Engine.RunCtx.
func runPlan(e *env, pl plan.Node, analyze bool) (*exec.Result, *exec.NodeStats, error) {
	job := e.sess.Ctx.StartJob(e.sess.Tag)
	defer func() {
		e.sess.Ctx.FinishJob(job)
		e.sess.Ctx.ReleaseJobShuffles(job, keepShuffles(e))
	}()
	gctx := rdd.WithJob(context.Background(), job)
	if analyze {
		return e.sess.Engine.RunAnalyzeCtx(gctx, pl)
	}
	res, err := e.sess.Engine.RunCtx(gctx, pl)
	return res, nil, err
}

// analyze takes SQL text to an analyzed plan through the front-end
// modules, recording a span per call when tr is non-nil.
func analyze(e *env, tr *tracer, parent, op int, sql string, args row.Row) (plan.Node, error) {
	do := func(name string, f func()) {
		if tr == nil {
			f()
			return
		}
		tr.do(name, parent, op, f)
	}
	var st sqlparse.Statement
	var err error
	do("sqlparse.Normalize", func() { _ = sqlparse.Normalize(sql) })
	do("sqlparse.Parse", func() { st, err = sqlparse.Parse(sql) })
	if err != nil {
		return nil, err
	}
	if len(args) > 0 {
		do("sqlparse.Bind", func() { st, err = sqlparse.Bind(st, args) })
		if err != nil {
			return nil, err
		}
	}
	sel, ok := st.(*sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%T is not a SELECT", st)
	}
	var pl plan.Node
	do("plan.Analyze", func() { pl, err = plan.Analyze(e.sess.Cat, sel) })
	return pl, err
}

// replaySelect runs one SELECT through the benchmark-owned pipeline
// under parent: front-end, RunAnalyzeCtx with one placed child span per
// plan operator, and — for a served workload — the wire codec over the
// result in the server's batch size.
func (r *replay) replaySelect(p *prepared, tr *tracer, parent, op int, s *stmt) error {
	e := p.e
	pl, err := analyze(e, tr, parent, op, s.sql, s.argsFor(op))
	if err != nil {
		return err
	}
	var res *exec.Result
	var ns *exec.NodeStats
	job := tr.begin("rdd.Job", parent, op)
	run := tr.begin("exec.RunAnalyzeCtx", job, op)
	res, ns, err = runPlan(e, pl, true)
	tr.end(run)
	tr.end(job)
	if err != nil {
		return err
	}
	var names []string
	var durs []time.Duration
	var walk func(*exec.NodeStats)
	walk = func(n *exec.NodeStats) {
		for _, c := range n.Children {
			walk(c) // inputs materialize before the operator that reads them
		}
		kind := operatorKind(n.Label)
		r.opWallNS[kind] += int64(n.Wall())
		names = append(names, "exec."+kind)
		durs = append(durs, n.Wall())
	}
	walk(ns)
	tr.place(run, names, durs)

	r.shuffleBytes += res.Stats.ShuffleBytes
	r.scannedParts += int64(res.Stats.ScannedPartitions)
	r.prunedParts += int64(res.Stats.PrunedPartitions)
	r.resultRows += int64(len(res.Rows))
	r.plans[s], r.results[s] = pl, res.Rows
	if err := checkDigest(s, op, digestRows(res.Rows), p.expected); err != nil {
		return err
	}
	if e.srv == nil {
		return nil
	}
	var frames [][]byte
	tr.do("wire.AppendMessage", parent, op, func() { frames = encodeRows(res.Rows) })
	tr.do("wire.ParseMessage", parent, op, func() { err = decodeRows(frames) })
	return err
}

// serverBatchRows is server.Config.BatchRows' default: how many rows
// one Fetch response carries.
const serverBatchRows = 512

// encodeRows frames rows as the server's Fetch responses would.
func encodeRows(rows []row.Row) [][]byte {
	var frames [][]byte
	for lo := 0; lo == 0 || lo < len(rows); lo += serverBatchRows {
		hi := min(lo+serverBatchRows, len(rows))
		frames = append(frames, wire.AppendMessage(nil, uint64(len(frames)+1), wire.Rows{Rows: rows[lo:hi], Done: hi == len(rows)}))
	}
	return frames
}

func decodeRows(frames [][]byte) error {
	for _, f := range frames {
		if _, _, err := wire.ParseMessage(f); err != nil {
			return err
		}
	}
	return nil
}

// round replays one round under a root "op" span. Statements that are
// not SELECTs (DDL, sql2rdd, logreg) run as one opaque span named by
// the module that owns them.
func (r *replay) round(p *prepared, tr *tracer, op int) error {
	c := p.clients[0]
	root := tr.begin("op", -1, op)
	for _, s := range p.e.stmts {
		st := tr.begin("stmt:"+s.id, root, op)
		if s.kind == kindSelect {
			if err := r.replaySelect(p, tr, st, op, s); err != nil {
				return fmt.Errorf("replay %s: %w", s.id, err)
			}
		} else {
			iters := len(c.iterTimes)
			i := tr.begin(s.layer, st, op)
			_, err := c.exec(s, op, false)
			tr.end(i)
			if err != nil {
				return fmt.Errorf("replay %s: %w", s.id, err)
			}
			if done := c.iterTimes[iters:]; len(done) > 0 {
				names := make([]string, len(done))
				for k := range names {
					names[k] = "ml.iteration"
				}
				tr.place(i, names, done)
			}
		}
		tr.end(st)
	}
	tr.end(root)
	r.opMS = append(r.opMS, float64(tr.spans[root].End-tr.spans[root].Start)/1e6)
	return nil
}

// driverRound runs one round through the real driver under a root
// "driver.op" span: what the replay's layers add up to can be set
// against what the client really waited.
func driverRound(p *prepared, tr *tracer, op int) error {
	c := p.clients[0]
	root := tr.begin("driver.op", -1, op)
	for _, s := range p.e.stmts {
		i := tr.begin("driver.Query", root, op)
		x, err := c.exec(s, op, false)
		if err == nil {
			err = checkDigest(s, op, x.d, p.expected)
		}
		if err != nil {
			return fmt.Errorf("driver replay %s: %w", s.id, err)
		}
		end := tr.now()
		tr.spans[i].End = tr.spans[i].Start + int64(x.queried)
		tr.spans = append(tr.spans, span{Name: "driver.Scan", Start: tr.spans[i].End, End: end, Parent: root, Op: op})
	}
	tr.end(root)
	return nil
}

// replayRounds replays up to maxRounds rounds, stopping early when
// budget runs out (but never before three).
func replayRounds(p *prepared, tr *tracer, maxRounds int, budget time.Duration) (*replay, error) {
	r := &replay{opWallNS: map[string]int64{}, plans: map[*stmt]plan.Node{}, results: map[*stmt][]row.Row{}}
	deadline := time.Now().Add(budget)
	for op := 0; op < maxRounds && (op < 3 || time.Now().Before(deadline)); op++ {
		if err := r.round(p, tr, op); err != nil {
			return nil, err
		}
		if p.e.srv != nil {
			if err := driverRound(p, tr, op); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// coverage is the share of the replayed rounds' wall time that the
// self times of module spans account for.
func (t *tracer) coverage() float64 {
	var wall, attributed int64
	inOp := make([]bool, len(t.spans))
	for i, s := range t.spans {
		switch {
		case s.Parent < 0:
			inOp[i] = s.Name == "op"
			if inOp[i] {
				wall += s.End - s.Start
			}
		default:
			inOp[i] = inOp[s.Parent]
		}
	}
	for i, self := range t.self() {
		if inOp[i] && strings.Contains(t.spans[i].Name, ".") {
			attributed += self
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(attributed) / float64(wall)
}
