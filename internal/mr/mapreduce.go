// Package mr implements the Hadoop/Hive baseline the paper compares
// against: a rigid map→sort→shuffle→reduce engine whose map outputs go
// to local disk, whose inter-job intermediates are materialized to the
// replicated DFS, and whose tasks are assigned by heartbeat polling
// with multi-second (scaled) launch overhead. A Hive-style compiler
// lowers the same logical plans the Shark engine runs into chains of
// MapReduce jobs, reproducing the cost structure §7.1 dissects.
package mr

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"shark/internal/cluster"
	"shark/internal/dfs"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// Engine runs MapReduce jobs on a (typically Hadoop-profiled) cluster.
type Engine struct {
	Cluster *cluster.Cluster
	FS      *dfs.FS
	Shuffle *shuffle.Service // Disk mode: spill files on local disk

	jobSeq  atomic.Int64
	retries int
}

// NewEngine creates a MapReduce engine. dir holds shuffle spill files.
func NewEngine(c *cluster.Cluster, fs *dfs.FS, dir string) *Engine {
	return &Engine{
		Cluster: c,
		FS:      fs,
		Shuffle: shuffle.NewService(c, shuffle.Disk, dir),
		retries: 3,
	}
}

// InputGroup is one input source of a job with its own map function
// (joins read two groups, tagged).
type InputGroup struct {
	// Files are DFS files whose blocks become map splits.
	Files []string
	// Map transforms one input row into zero or more (key, value)
	// pairs.
	Map func(r row.Row, emit func(k any, v row.Row))
}

// Job is one MapReduce job.
type Job struct {
	Name   string
	Inputs []InputGroup
	// Combine optionally merges a key's values map-side after the
	// sort (Hadoop's combiner).
	Combine func(key any, vals []row.Row) []row.Row
	// Reduce folds a key's values into output rows.
	Reduce func(key any, vals []row.Row, emit func(row.Row))
	// NumReduces is the reduce-task count — the knob Hive is so
	// sensitive to (§6.3). Required >= 1.
	NumReduces int
	// Output names the DFS file prefix; each reduce writes
	// "<Output>/part-<i>".
	Output       string
	OutputSchema row.Schema
	OutputFormat dfs.Format
}

// JobResult describes a finished job.
type JobResult struct {
	OutputFiles []string
	OutputRows  int64
	MapTasks    int
	ReduceTasks int
}

type split struct {
	group int
	file  string
	block int
}

// Run executes the job to completion: all maps (with a full barrier),
// then all reduces.
func (e *Engine) Run(job *Job) (*JobResult, error) {
	if job.NumReduces < 1 {
		return nil, fmt.Errorf("mr: job %q needs NumReduces >= 1", job.Name)
	}
	jobID := int(e.jobSeq.Add(1))
	shuffleID := e.Shuffle.NewShuffleID()

	var splits []split
	for gi, g := range job.Inputs {
		for _, f := range g.Files {
			meta, err := e.FS.Stat(f)
			if err != nil {
				return nil, err
			}
			for b := range meta.Blocks {
				splits = append(splits, split{group: gi, file: f, block: b})
			}
		}
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("mr: job %q has no input splits", job.Name)
	}

	// ----- map phase (barrier at the end, as in Hadoop) -----
	locations := make(map[int]int, len(splits))
	mapResults := make([]<-chan cluster.Result, len(splits))
	for i, sp := range splits {
		i, sp := i, sp
		mapResults[i] = e.Cluster.Submit(&cluster.Task{Fn: func(w *cluster.Worker) (any, error) {
			return e.runMapTask(job, shuffleID, i, sp, w)
		}})
	}
	for i := range mapResults {
		res := <-mapResults[i]
		if res.Err != nil {
			res = e.retry(func(w *cluster.Worker) (any, error) {
				return e.runMapTask(job, shuffleID, i, splits[i], w)
			}, res)
			if res.Err != nil {
				return nil, fmt.Errorf("mr: map task %d of %q: %w", i, job.Name, res.Err)
			}
		}
		locations[i] = res.Worker
	}

	// ----- reduce phase -----
	outFiles := make([]string, job.NumReduces)
	var outputRows atomic.Int64
	redResults := make([]<-chan cluster.Result, job.NumReduces)
	for r := 0; r < job.NumReduces; r++ {
		r := r
		outFiles[r] = fmt.Sprintf("%s/part-%05d", job.Output, r)
		redResults[r] = e.Cluster.Submit(&cluster.Task{Fn: func(w *cluster.Worker) (any, error) {
			n, err := e.runReduceTask(job, shuffleID, r, outFiles[r], locations)
			if err == nil {
				outputRows.Add(n)
			}
			return nil, err
		}})
	}
	for r := range redResults {
		res := <-redResults[r]
		if res.Err != nil {
			return nil, fmt.Errorf("mr: reduce task %d of %q (job %d): %w", r, job.Name, jobID, res.Err)
		}
	}
	e.Shuffle.Unregister(shuffleID)
	return &JobResult{
		OutputFiles: outFiles,
		OutputRows:  outputRows.Load(),
		MapTasks:    len(splits),
		ReduceTasks: job.NumReduces,
	}, nil
}

func (e *Engine) retry(fn func(*cluster.Worker) (any, error), last cluster.Result) cluster.Result {
	for i := 0; i < e.retries; i++ {
		res := <-e.Cluster.Submit(&cluster.Task{Fn: fn, Excluded: []int{last.Worker}})
		if res.Err == nil {
			return res
		}
		last = res
	}
	return last
}

// runMapTask reads one split, applies the group's map function,
// partitions and sorts the output, applies the combiner, and spills
// each bucket to local disk.
func (e *Engine) runMapTask(job *Job, shuffleID, mapIdx int, sp split, w *cluster.Worker) (any, error) {
	rd, err := e.FS.OpenBlock(sp.file, sp.block)
	if err != nil {
		return nil, err
	}
	defer rd.Close()

	nB := job.NumReduces
	buckets := make([]map[string][]shuffle.Pair, nB)
	part := shuffle.HashPartitioner{N: nB}
	mapFn := job.Inputs[sp.group].Map
	emit := func(k any, v row.Row) {
		b := part.PartitionFor(k)
		if buckets[b] == nil {
			buckets[b] = make(map[string][]shuffle.Pair)
		}
		sk := sortKey(k)
		buckets[b][sk] = append(buckets[b][sk], shuffle.Pair{K: k, V: v})
	}
	for {
		r, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		mapFn(r, emit)
	}

	writer := e.Shuffle.NewWriter(shuffleID, mapIdx, nB, w)
	for b := range buckets {
		if buckets[b] == nil {
			continue
		}
		// Hadoop sorts map output by key before spilling.
		keys := make([]string, 0, len(buckets[b]))
		for k := range buckets[b] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, sk := range keys {
			pairs := buckets[b][sk]
			if job.Combine != nil {
				vals := make([]row.Row, len(pairs))
				for i, p := range pairs {
					vals[i] = p.V.(row.Row)
				}
				for _, v := range job.Combine(pairs[0].K, vals) {
					writer.Write(b, shuffle.Pair{K: pairs[0].K, V: v})
				}
				continue
			}
			for _, p := range pairs {
				writer.Write(b, p)
			}
		}
	}
	if _, err := writer.Commit(); err != nil {
		return nil, err
	}
	return nil, nil
}

// sortKey gives a total order over shuffle keys of mixed scalar type.
func sortKey(k any) string {
	return string(row.EncodeBinary(nil, row.Row{k}))
}

// runReduceTask fetches one bucket from every map output, merges by
// key, reduces, and writes the output part to the replicated DFS.
func (e *Engine) runReduceTask(job *Job, shuffleID, bucket int, outFile string, locations map[int]int) (int64, error) {
	pairs, err := e.Shuffle.Fetch(shuffleID, bucket, locations)
	if err != nil {
		return 0, err
	}
	groups := make(map[string][]shuffle.Pair)
	for _, p := range pairs {
		sk := sortKey(p.K)
		groups[sk] = append(groups[sk], p)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // merge-sorted reduce input order

	w, err := e.FS.Create(outFile, job.OutputFormat, job.OutputSchema)
	if err != nil {
		return 0, err
	}
	var n int64
	var werr error
	emit := func(r row.Row) {
		if werr == nil {
			werr = w.Write(r)
			n++
		}
	}
	for _, sk := range keys {
		g := groups[sk]
		vals := make([]row.Row, len(g))
		for i, p := range g {
			vals[i] = p.V.(row.Row)
		}
		job.Reduce(g[0].K, vals, emit)
		if werr != nil {
			return 0, werr
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return n, nil
}

// RunMapOnly executes a job with no shuffle or reduce phase: each map
// task writes its emitted values directly to a DFS part file (Hadoop's
// zero-reducer jobs, used for selections and final projections).
func (e *Engine) RunMapOnly(job *Job) (*JobResult, error) {
	var splits []split
	for gi, g := range job.Inputs {
		for _, f := range g.Files {
			meta, err := e.FS.Stat(f)
			if err != nil {
				return nil, err
			}
			for b := range meta.Blocks {
				splits = append(splits, split{group: gi, file: f, block: b})
			}
		}
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("mr: job %q has no input splits", job.Name)
	}
	outFiles := make([]string, len(splits))
	var outputRows atomic.Int64
	results := make([]<-chan cluster.Result, len(splits))
	for i, sp := range splits {
		i, sp := i, sp
		outFiles[i] = fmt.Sprintf("%s/part-%05d", job.Output, i)
		results[i] = e.Cluster.Submit(&cluster.Task{Fn: func(w *cluster.Worker) (any, error) {
			rd, err := e.FS.OpenBlock(sp.file, sp.block)
			if err != nil {
				return nil, err
			}
			defer rd.Close()
			wr, err := e.FS.Create(outFiles[i], job.OutputFormat, job.OutputSchema)
			if err != nil {
				return nil, err
			}
			var n int64
			var werr error
			emit := func(r row.Row) {
				if werr == nil {
					werr = wr.Write(r)
					n++
				}
			}
			mapFn := job.Inputs[sp.group].Map
			for {
				r, err := rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				mapFn(r, func(_ any, v row.Row) { emit(v) })
				if werr != nil {
					return nil, werr
				}
			}
			if err := wr.Close(); err != nil {
				return nil, err
			}
			outputRows.Add(n)
			return nil, nil
		}})
	}
	for i := range results {
		if res := <-results[i]; res.Err != nil {
			return nil, fmt.Errorf("mr: map-only task %d of %q: %w", i, job.Name, res.Err)
		}
	}
	return &JobResult{
		OutputFiles: outFiles,
		OutputRows:  outputRows.Load(),
		MapTasks:    len(splits),
	}, nil
}

// ReadOutput reads every row of a job's output (driver-side).
func (e *Engine) ReadOutput(res *JobResult) ([]row.Row, error) {
	var out []row.Row
	for _, f := range res.OutputFiles {
		rows, err := e.FS.ReadAll(f)
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
}
