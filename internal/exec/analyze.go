package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shark/internal/columnar"
	"shark/internal/plan"
	"shark/internal/rdd"
)

// EXPLAIN ANALYZE profiling. A prof mirrors the plan tree with one
// NodeStats per operator; the engine threads it through compilation
// (nil when not analyzing — the zero-overhead path). Two kinds of
// data land on a node:
//
//   - rows: a counting iterator wrapped around every compiled
//     operator counts the rows of the batches it emits, inside
//     whatever task executes the pipeline; operators fused into a
//     chain have no iterator between them and add their
//     selection-vector lengths per batch instead (memscan.go);
//   - wall time: the master's wall clock is charged to one operator
//     at a time (timeline): the one it is compiling, or blocked on in
//     a segment it caused (PDE pre-shuffles, aggregate map stages,
//     mid-plan Sort/Limit collects, the final collect); the rest is
//     the root's. So the nodes' wall times sum to the statement's (the
//     property the EXPLAIN ANALYZE output reports and tests assert).
//
// Cache traffic per node comes from diffing the statement job's
// counters around each blocking segment.

// NodeStats is one plan operator's record in an EXPLAIN ANALYZE
// profile. All mutation is atomic or under mu (spans may be written
// from many task goroutines); a nil *NodeStats absorbs every call.
type NodeStats struct {
	Label    string
	Children []*NodeStats

	tl     *timeline
	rows   atomic.Int64
	wallNS atomic.Int64
	// Cache traffic attributed to this node's blocking segments.
	cacheHits  atomic.Int64
	remoteHits atomic.Int64
	diskHits   atomic.Int64

	// mu guards notes.
	mu    sync.Mutex
	notes []string
}

// AddRows counts rows emitted by the node.
func (ns *NodeStats) AddRows(n int64) {
	if ns == nil {
		return
	}
	ns.rows.Add(n)
}

// Wall returns the master-blocking wall time attributed to the node.
func (ns *NodeStats) Wall() time.Duration {
	if ns == nil {
		return 0
	}
	return time.Duration(ns.wallNS.Load())
}

// Notef records a human-readable annotation (strategy chosen, PDE
// decision, reducer count).
func (ns *NodeStats) Notef(format string, args ...any) {
	if ns == nil {
		return
	}
	ns.mu.Lock()
	ns.notes = append(ns.notes, fmt.Sprintf(format, args...))
	ns.mu.Unlock()
}

// TotalWall sums attributed wall time over the subtree.
func (ns *NodeStats) TotalWall() time.Duration {
	if ns == nil {
		return 0
	}
	total := ns.Wall()
	for _, c := range ns.Children {
		total += c.TotalWall()
	}
	return total
}

// beginSegment enters the node for a master-blocking segment (a stage
// materialization or collect); the returned func ends it, adding the
// statement job's cache-traffic deltas. Safe on a nil node.
func (ns *NodeStats) beginSegment(gctx context.Context) func() {
	if ns == nil {
		return func() {}
	}
	exit := ns.enter()
	before := jobStatsFrom(gctx)
	return func() {
		exit()
		after := jobStatsFrom(gctx)
		ns.cacheHits.Add(after.CacheHits - before.CacheHits)
		ns.remoteHits.Add(after.RemoteCacheHits - before.RemoteCacheHits)
		ns.diskHits.Add(after.DiskHits - before.DiskHits)
	}
}

// enter charges the master's wall clock to the node until the returned
// func is called, but for nodes entered meanwhile. Safe on a nil node.
func (ns *NodeStats) enter() func() {
	if ns == nil {
		return func() {}
	}
	tl := ns.tl
	tl.charge()
	tl.on = append(tl.on, ns)
	return func() {
		tl.charge()
		tl.on = tl.on[:len(tl.on)-1]
	}
}

// timeline is the master's wall clock over one statement, charged to
// the innermost node entered: every instant is some node's, so a GC
// pause or a wait for a CPU lands on the node it interrupted, never
// between nodes. Only the master goroutine enters nodes.
type timeline struct {
	on    []*NodeStats // innermost last
	since time.Time    // when on's last node was last charged
}

// charge adds the time since the last charge to the innermost node.
func (tl *timeline) charge() {
	now := time.Now()
	if n := len(tl.on); n > 0 {
		tl.on[n-1].wallNS.Add(int64(now.Sub(tl.since)))
	}
	tl.since = now
}

func jobStatsFrom(gctx context.Context) rdd.JobStats {
	if j := rdd.JobFrom(gctx); j != nil {
		return j.Stats()
	}
	return rdd.JobStats{}
}

// Render formats the annotated plan tree, one line per operator.
func (ns *NodeStats) Render() []string {
	var out []string
	var walk func(*NodeStats, int)
	walk = func(cur *NodeStats, depth int) {
		indent := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%s  [wall=%s rows=%d", indent, cur.Label,
			fmtWall(cur.Wall()), cur.rows.Load())
		if c, r, d := cur.cacheHits.Load(), cur.remoteHits.Load(), cur.diskHits.Load(); c+r+d > 0 {
			line += fmt.Sprintf(" cache=%d/%d/%d", c, r, d)
		}
		line += "]"
		cur.mu.Lock()
		notes := append([]string(nil), cur.notes...)
		cur.mu.Unlock()
		if len(notes) > 0 {
			line += "  " + strings.Join(notes, "; ")
		}
		out = append(out, line)
		for _, c := range cur.Children {
			walk(c, depth+1)
		}
	}
	walk(ns, 0)
	return out
}

func fmtWall(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// prof maps plan nodes to their NodeStats for one statement. A nil
// *prof (tracing off) resolves every node to nil.
type prof struct {
	root *NodeStats
	m    map[plan.Node]*NodeStats
}

// newProf builds the profile of a statement about to run. Its timeline
// starts now, charged to the root: the set-up is the statement's.
func newProf(root plan.Node) *prof {
	p := &prof{m: make(map[plan.Node]*NodeStats)}
	tl := &timeline{since: time.Now()}
	var walk func(plan.Node) *NodeStats
	walk = func(n plan.Node) *NodeStats {
		ns := &NodeStats{Label: n.String(), tl: tl}
		p.m[n] = ns
		for _, c := range n.Children() {
			ns.Children = append(ns.Children, walk(c))
		}
		return ns
	}
	p.root = walk(root)
	tl.on = []*NodeStats{p.root}
	return p
}

func (p *prof) of(n plan.Node) *NodeStats {
	if p == nil {
		return nil
	}
	return p.m[n]
}

// profileRows wraps a compiled operator so every row of the batches it
// emits is counted on its NodeStats (analyze mode only).
func profileRows(r *rdd.RDD, ns *NodeStats) *rdd.RDD {
	return r.MapPartitions(func(_ *rdd.TaskContext, _ int, in rdd.Iter) rdd.Iter {
		return rdd.FuncIter(func() (any, bool) {
			v, ok := in.Next()
			if ok {
				ns.AddRows(int64(len(v.(*columnar.Batch).Sel)))
			}
			return v, ok
		})
	})
}
