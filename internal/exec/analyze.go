package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shark/internal/plan"
	"shark/internal/rdd"
)

// EXPLAIN ANALYZE profiling. A prof mirrors the plan tree with one
// NodeStats per operator; the engine threads it through compilation
// (nil when not analyzing — the zero-overhead path). Two kinds of
// data land on a node:
//
//   - rows: a counting iterator wrapped around every compiled
//     operator counts the rows it emits, inside whatever task
//     executes the pipeline; operators fused onto a cached-table scan
//     have no iterator between them and add their selection-vector
//     lengths per batch instead (memscan.go);
//   - wall time: the master blocks at well-defined points — PDE
//     pre-shuffle materializations, aggregate map stages, mid-plan
//     Sort/Limit collects, the final collect — and each blocking
//     segment is attributed to the operator that caused it. The
//     segments are sequential master-side wall clock, so their sum
//     tracks the statement's measured wall time (the property the
//     EXPLAIN ANALYZE output reports and tests assert).
//
// Cache traffic per node comes from diffing the statement job's
// counters around each blocking segment.

// NodeStats is one plan operator's record in an EXPLAIN ANALYZE
// profile. All mutation is atomic or under mu (spans may be written
// from many task goroutines); a nil *NodeStats absorbs every call.
type NodeStats struct {
	Label    string
	Children []*NodeStats

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

// beginSegment starts attributing a master-blocking segment (a stage
// materialization or collect) to the node; the returned func ends it,
// adding the elapsed wall time and the statement job's cache-traffic
// deltas. Safe on a nil node.
func (ns *NodeStats) beginSegment(gctx context.Context) func() {
	if ns == nil {
		return func() {}
	}
	start := time.Now()
	before := jobStatsFrom(gctx)
	return func() {
		ns.wallNS.Add(int64(time.Since(start)))
		after := jobStatsFrom(gctx)
		ns.cacheHits.Add(after.CacheHits - before.CacheHits)
		ns.remoteHits.Add(after.RemoteCacheHits - before.RemoteCacheHits)
		ns.diskHits.Add(after.DiskHits - before.DiskHits)
	}
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

func newProf(root plan.Node) *prof {
	p := &prof{m: make(map[plan.Node]*NodeStats)}
	var walk func(plan.Node) *NodeStats
	walk = func(n plan.Node) *NodeStats {
		ns := &NodeStats{Label: n.String()}
		p.m[n] = ns
		for _, c := range n.Children() {
			ns.Children = append(ns.Children, walk(c))
		}
		return ns
	}
	p.root = walk(root)
	return p
}

func (p *prof) of(n plan.Node) *NodeStats {
	if p == nil {
		return nil
	}
	return p.m[n]
}

// profileRows wraps a compiled operator so every row it emits is
// counted on its NodeStats (analyze mode only).
func profileRows(r *rdd.RDD, ns *NodeStats) *rdd.RDD {
	return r.MapPartitions(func(part int, in rdd.Iter) rdd.Iter {
		return rdd.FuncIter(func() (any, bool) {
			v, ok := in.Next()
			if ok {
				ns.AddRows(1)
			}
			return v, ok
		})
	})
}
