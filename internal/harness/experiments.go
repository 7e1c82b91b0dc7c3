package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"shark/internal/columnar"
	"shark/internal/core"
	"shark/internal/data"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/ml"
	"shark/internal/mr"
	"shark/internal/pde"
	"shark/internal/rdd"
	"shark/internal/row"
	"shark/internal/shuffle"
)

// experiments maps experiment ids (docs/ARCHITECTURE.md) to runners. Every
// runner takes the harness context so a cancelled bench run (Ctrl-C
// on shark-bench) aborts the in-flight distributed job rather than
// running it to completion.
var experiments = map[string]func(context.Context, Scale, *Report) error{
	"fig1":           runFig1,
	"fig5_selection": runFig5Selection,
	"fig5_agg":       runFig5Agg,
	"fig6_join":      runFig6Join,
	"loading":        runLoading,
	"fig7":           runFig7,
	"fig8":           runFig8,
	"fig9":           runFig9,
	"fig10":          runFig10,
	"fig11":          runFig11,
	"fig12":          runFig12,
	"fig13":          runFig13,
	"tbl_columnar":   runColumnarFootprint,
	"abl_shuffle":    runShuffleAblation,
	"abl_compile":    runExprCompileAblation,
	"abl_binpack":    runSkewAblation,
	"abl_memory":     runMemory,
	"abl_storage":    runStorage,
	"abl_pde":        runPDE,
	"pruning":        runPruning,
}

// system is one series of a cross-system comparison: the engine that
// runs the query, the variant of its tables it reads, and how its
// result is summarised in the notes column.
type system struct {
	label    string
	suffix   string // appended to each table name: "_mem" reads the memstore, "" the DFS text file
	hive     bool   // Hive/MR, timed as a single run, instead of Shark (warm-up + mean of Reps)
	reducers int    // hive only: fixed reduce count ("tuned"); 0 = Hive's auto estimate
	note     func(*core.Result, *mr.Result) string
}

// compare times one query template on every system and appends one
// series per system. The template's verbs take the table names, each
// with the system's suffix.
func compare(e *Env, r *Report, exp, tmpl string, systems []system, tables ...string) error {
	for _, sys := range systems {
		names := make([]any, len(tables))
		for i, t := range tables {
			names[i] = t + sys.suffix
		}
		sql := fmt.Sprintf(tmpl, names...)
		var (
			secs float64
			sres *core.Result
			hres *mr.Result
			err  error
		)
		if sys.hive {
			secs, hres, err = e.TimeHive(sql, sys.reducers)
		} else {
			secs, sres, err = e.TimeShark(sql)
		}
		if err != nil {
			return fmt.Errorf("%s / %s: %w", exp, sys.label, err)
		}
		note := ""
		if sys.note != nil {
			note = sys.note(sres, hres)
		}
		r.Add(exp, sys.label, secs, note)
	}
	return nil
}

// pavloTables is the §6.2 benchmark's data, both tables cached.
var pavloTables = []string{"rankings_mem", "uservisits_mem"}

// pavloSystems is Figure 5/6's Shark / Shark (disk) / Hive comparison.
func pavloSystems(hiveReducers int) []system {
	return []system{
		{label: "Shark", suffix: "_mem", note: func(s *core.Result, _ *mr.Result) string {
			return fmt.Sprintf("%d rows", len(s.Rows))
		}},
		{label: "Shark (disk)"},
		{label: "Hive", hive: true, reducers: hiveReducers, note: func(_ *core.Result, h *mr.Result) string {
			return fmt.Sprintf("%d MR jobs", h.Jobs)
		}},
	}
}

// --------------------------------------------------------------------------
// §6.2.1 / Figure 5: selection.

func runFig5Selection(ctx context.Context, sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, pavloTables...)
	if err != nil {
		return err
	}
	defer e.Close()
	return compare(e, r, "fig5_selection: SELECT pageURL,pageRank WHERE pageRank > 9000",
		"SELECT pageURL, pageRank FROM %s WHERE pageRank > 9000", pavloSystems(0), "rankings")
}

// --------------------------------------------------------------------------
// §6.2.2 / Figure 5: the two aggregation queries.

func runFig5Agg(ctx context.Context, sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, pavloTables...)
	if err != nil {
		return err
	}
	defer e.Close()
	systems := pavloSystems(sc.Workers * sc.Slots)
	if err := compare(e, r, "fig5_agg: GROUP BY sourceIP (many groups)",
		"SELECT sourceIP, SUM(adRevenue) FROM %s GROUP BY sourceIP", systems, "uservisits"); err != nil {
		return err
	}
	return compare(e, r, "fig5_agg: GROUP BY SUBSTR(sourceIP,1,7) (~1K groups)",
		"SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM %s GROUP BY SUBSTR(sourceIP, 1, 7)", systems, "uservisits")
}

// --------------------------------------------------------------------------
// §6.2.3 / Figure 6: the Pavlo join query, including the
// co-partitioned variant.

const pavloJoinTemplate = `SELECT %[1]s.sourceIP, AVG(%[2]s.pageRank) AS avg_rank, SUM(%[1]s.adRevenue) AS totalRevenue
FROM %[2]s, %[1]s
WHERE %[2]s.pageURL = %[1]s.destURL
AND %[1]s.visitDate BETWEEN Date('2000-01-15') AND Date('2000-01-22')
GROUP BY %[1]s.sourceIP`

func runFig6Join(ctx context.Context, sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, pavloTables...)
	if err != nil {
		return err
	}
	defer e.Close()
	exp := "fig6_join: rankings ⋈ uservisits, date filter, group+avg"

	// Co-partitioned tables (§3.4 DDL).
	if _, err := e.Shark.Exec(`CREATE TABLE r_cop TBLPROPERTIES ("shark.cache"="true") AS
		SELECT * FROM rankings DISTRIBUTE BY pageURL`); err != nil {
		return err
	}
	if _, err := e.Shark.Exec(`CREATE TABLE v_cop TBLPROPERTIES ("shark.cache"="true", "copartition"="r_cop") AS
		SELECT * FROM uservisits DISTRIBUTE BY destURL`); err != nil {
		return err
	}
	copartitioned := []system{{label: "Copartitioned", suffix: "_cop", note: func(s *core.Result, _ *mr.Result) string {
		return strings.Join(s.Stats.JoinStrategies, ",")
	}}}
	if err := compare(e, r, exp, pavloJoinTemplate, copartitioned, "v", "r"); err != nil {
		return err
	}
	return compare(e, r, exp, pavloJoinTemplate, pavloSystems(sc.Workers*sc.Slots), "uservisits", "rankings")
}

// --------------------------------------------------------------------------
// §6.2.4 / §3.3: data loading throughput, DFS vs memstore.

func runLoading(ctx context.Context, sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, "uservisits")
	if err != nil {
		return err
	}
	defer e.Close()
	meta, err := e.FS.Stat("data/uservisits")
	if err != nil {
		return err
	}
	mb := float64(meta.TotalBytes()) / (1 << 20)

	// (a) load into DFS: read + re-write with 3× replication.
	dfsSecs, err := timeIt(func() error {
		_, err := e.Shark.Exec(`CREATE TABLE visits_dfs AS SELECT * FROM uservisits`)
		return err
	})
	if err != nil {
		return err
	}
	// (b) load into the memstore: read + columnarize in memory.
	memSecs, err := timeIt(func() error { return e.CacheTable("uservisits") })
	if err != nil {
		return err
	}
	exp := fmt.Sprintf("loading: ingest uservisits (%.1f MB)", mb)
	r.Add(exp, "into DFS (3x replicated)", dfsSecs, fmt.Sprintf("%.1f MB/s", mb/dfsSecs))
	r.Add(exp, "into memstore (columnar)", memSecs, fmt.Sprintf("%.1f MB/s", mb/memSecs))
	return nil
}

// --------------------------------------------------------------------------
// §6.3.1 / Figure 7: aggregation sweep over group cardinalities on
// lineitem, both dataset scales, with tuned and untuned Hive.

func runFig7(ctx context.Context, sc Scale, r *Report) error {
	tuned := sc.Workers * sc.Slots
	systems := []system{
		{label: "Shark", suffix: "_mem"},
		{label: "Shark (disk)"},
		{label: "Hive (tuned)", hive: true, reducers: tuned, note: func(*core.Result, *mr.Result) string {
			return fmt.Sprintf("%d reducers", tuned)
		}},
		{label: "Hive", hive: true, note: func(_ *core.Result, h *mr.Result) string {
			return fmt.Sprintf("%d reducers (auto)", h.ReduceTasks)
		}},
	}
	queries := []struct{ groups, sql string }{
		{"1 group", "SELECT COUNT(*) FROM %s"},
		{"7 groups", "SELECT L_SHIPMODE, COUNT(*) FROM %s GROUP BY L_SHIPMODE"},
		{"2.5K groups", "SELECT L_RECEIPTDATE, COUNT(*) FROM %s GROUP BY L_RECEIPTDATE"},
		{"high-card groups", "SELECT L_ORDERKEY, COUNT(*) FROM %s GROUP BY L_ORDERKEY"},
	}
	one := func(label string, rows int) error {
		sized := sc
		sized.Lineitem = rows
		e, err := newEnv(sized, exec.Options{}, shuffle.Memory, "lineitem_mem")
		if err != nil {
			return err
		}
		defer e.Close()
		for _, q := range queries {
			if err := compare(e, r, fmt.Sprintf("fig7 %s: %s", label, q.groups), q.sql, systems, "lineitem"); err != nil {
				return err
			}
		}
		return nil
	}
	if err := one("100GB-scale", sc.Lineitem); err != nil {
		return err
	}
	return one("1TB-scale", sc.LineitemBig)
}

// --------------------------------------------------------------------------
// §6.3.2 / Figure 8: join strategy selection with an opaque UDF.

func runFig8(ctx context.Context, sc Scale, r *Report) error {
	exp := "fig8: lineitem ⋈ supplier WHERE SOME_UDF(s.S_ADDRESS)"
	const query = `SELECT lineitem_mem.L_ORDERKEY, supplier_mem.S_NAME
FROM lineitem_mem JOIN supplier_mem ON lineitem_mem.L_SUPPKEY = supplier_mem.S_SUPPKEY
WHERE SOME_UDF(supplier_mem.S_ADDRESS)`

	// The broadcast threshold must sit well below the full supplier
	// table (so the static optimizer, blind to the UDF's selectivity,
	// keeps the shuffle join) but well above the UDF-filtered supplier
	// (so the adaptive optimizer switches to a map join). Scale it
	// with the data, as deployments configure it relative to memory.
	threshold := int64(sc.Supplier) * 8
	big := sc
	big.Lineitem = sc.LineitemBig
	return ablate(big, r, exp, query, []variant{
		{label: "Static", opts: exec.Options{JoinStrategy: exec.StrategyStatic, BroadcastThreshold: threshold}},
		{label: "Adaptive", opts: exec.Options{JoinStrategy: exec.StrategyAdaptive, BroadcastThreshold: threshold}},
		{label: "Static + Adaptive", opts: exec.Options{JoinStrategy: exec.StrategyStaticAdaptive, BroadcastThreshold: threshold}},
	}, "SOME_UDF", "lineitem_mem", "supplier_mem")
}

// --------------------------------------------------------------------------
// §6.3.3 / Figure 9: mid-query fault tolerance.

func runFig9(ctx context.Context, sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, "lineitem")
	if err != nil {
		return err
	}
	defer e.Close()
	exp := "fig9: group-by on cached lineitem with a worker failure"
	const query = "SELECT L_SHIPMODE, COUNT(*), SUM(L_EXTENDEDPRICE) FROM lineitem_mem GROUP BY L_SHIPMODE"

	// Full reload: cache load + query.
	reload, err := timeIt(func() error {
		if err := e.CacheTable("lineitem"); err != nil {
			return err
		}
		_, err := e.Shark.Exec(query)
		return err
	})
	if err != nil {
		return err
	}
	r.Add(exp, "Full reload (load + query)", reload, "")

	noFail, _, err := e.TimeShark(query)
	if err != nil {
		return err
	}
	r.Add(exp, "No failures", noFail, "")

	// Kill one worker; the next query recovers lost partitions via
	// lineage while running.
	victim := e.Scale.Workers - 1
	e.SharkCluster.Kill(victim)
	e.Shark.Ctx.NotifyWorkerLost(victim)
	failSecs, err := timeIt(func() error {
		_, err := e.Shark.Exec(query)
		return err
	})
	if err != nil {
		return err
	}
	r.Add(exp, "Single failure (recovery in-query)", failSecs,
		"lost cache partitions recomputed via lineage")

	post, _, err := e.TimeShark(query)
	if err != nil {
		return err
	}
	r.Add(exp, "Post-recovery", post, fmt.Sprintf("%d live workers", len(e.SharkCluster.AliveWorkers())))
	return nil
}

// --------------------------------------------------------------------------
// §6.4 / Figure 10: the real-warehouse queries Q1–Q4.

var warehouseQueries = []struct {
	name string
	sql  string
}{
	{"Q1 (per-customer day summary, 12 aggs)",
		`SELECT COUNT(*), AVG(buffering_ms), AVG(startup_ms), AVG(bitrate_kbps), AVG(play_time_s),
		SUM(failures), SUM(rebuffers), AVG(avg_fps), AVG(quality_score), MIN(play_time_s),
		MAX(play_time_s), SUM(bytes_sent)
		FROM %s WHERE customer_id = 7 AND session_day = Date('2012-06-15')`},
	{"Q2 (sessions+distinct by country, 8 filters)",
		`SELECT country, COUNT(*) AS sessions, COUNT(DISTINCT customer_id) AS custs
		FROM %s
		WHERE session_day BETWEEN Date('2012-06-10') AND Date('2012-06-20')
		AND bitrate_kbps > 600 AND play_time_s > 60 AND failures = 0
		AND cdn IN ('cdnA', 'cdnB') AND player <> 'flash'
		AND device IN ('desktop', 'tv') AND exit_state <> 'errored'
		GROUP BY country`},
	{"Q3 (all but 2 countries)",
		`SELECT COUNT(*), COUNT(DISTINCT user_id) FROM %s
		WHERE country NOT IN ('US', 'CA')`},
	{"Q4 (top device segments, 7 dims)",
		`SELECT device, COUNT(*) AS sessions, AVG(quality_score), AVG(buffering_ms),
		AVG(bitrate_kbps), SUM(failures), AVG(play_time_s)
		FROM %s WHERE session_day BETWEEN Date('2012-06-05') AND Date('2012-06-25')
		GROUP BY device ORDER BY sessions DESC LIMIT 10`},
}

func runFig10(ctx context.Context, sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, "sessions_mem")
	if err != nil {
		return err
	}
	defer e.Close()
	systems := []system{
		{label: "Shark", suffix: "_mem", note: func(s *core.Result, _ *mr.Result) string {
			if s.Stats.PrunedPartitions == 0 {
				return ""
			}
			return fmt.Sprintf("scanned %d/%d parts", s.Stats.ScannedPartitions,
				s.Stats.PrunedPartitions+s.Stats.ScannedPartitions)
		}},
		{label: "Shark (disk)"},
		{label: "Hive", hive: true, reducers: sc.Workers * sc.Slots},
	}
	for _, q := range warehouseQueries {
		if err := compare(e, r, "fig10 "+q.name, q.sql, systems, "sessions"); err != nil {
			return err
		}
	}
	return nil
}

// --------------------------------------------------------------------------
// §6.5 / Figures 11 & 12: machine learning per-iteration runtimes.

// mlEnv holds the points in every form the §6.5 baselines read: text
// in the DFS (Hadoop-text), cached in Shark's memstore and pulled out
// via sql2rdd (§4.1), and binary in the DFS (Hadoop-binary).
func mlEnv(sc Scale) (*Env, *rdd.RDD, error) {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, "points_mem")
	if err != nil {
		return nil, nil, err
	}
	points := datasets["points"]
	if _, err := data.WriteFile(e.FS, "data/points_bin", dfs.Binary, points.schema(sc),
		func(emit emitFunc) error { return points.gen(sc, emit) }); err != nil {
		e.Close()
		return nil, nil, err
	}
	tr, err := e.Shark.Query("SELECT * FROM points_mem")
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	pointsRDD := tr.MapRows(func(v core.RowView) any {
		p, err := ml.RowToLabeledPoint(v.Row)
		if err != nil {
			rdd.Fail(err)
		}
		return p
	}).Cache()
	return e, pointsRDD, nil
}

func avgSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds() / float64(len(ds))
}

func runFig11(ctx context.Context, sc Scale, r *Report) error {
	e, points, err := mlEnv(sc)
	if err != nil {
		return err
	}
	defer e.Close()
	exp := "fig11: logistic regression, per-iteration"

	timer := &ml.IterTimer{}
	if _, err := ml.LogisticRegressionCtx(ctx, points, sc.MLDim, sc.MLIters+1, 1e-4, timer); err != nil {
		return err
	}
	// First iteration includes cache materialization; report the rest.
	r.Add(exp, "Shark", avgSeconds(timer.Durations[1:]),
		fmt.Sprintf("first iter (load) %.3fs", timer.Durations[0].Seconds()))

	for _, hadoop := range []struct{ label, file string }{
		{"Hadoop (binary)", "data/points_bin"},
		{"Hadoop (text)", "data/points"},
	} {
		timer := &ml.IterTimer{}
		if _, err := ml.LogisticRegressionMR(e.MR, hadoop.file, sc.MLDim, sc.MLIters, 1e-4, timer); err != nil {
			return err
		}
		r.Add(exp, hadoop.label, avgSeconds(timer.Durations), "")
	}
	return nil
}

func runFig12(ctx context.Context, sc Scale, r *Report) error {
	e, pointsLP, err := mlEnv(sc)
	if err != nil {
		return err
	}
	defer e.Close()
	exp := "fig12: k-means, per-iteration"
	const k = 10

	vectors := pointsLP.Map(func(v any) any { return v.(ml.LabeledPoint).X }).Cache()
	timer := &ml.IterTimer{}
	if _, err := ml.KMeansCtx(ctx, vectors, k, sc.MLIters+1, timer); err != nil {
		return err
	}
	r.Add(exp, "Shark", avgSeconds(timer.Durations[1:]),
		fmt.Sprintf("first iter (load) %.3fs", timer.Durations[0].Seconds()))

	// Hadoop baselines read features-only files.
	featSchema := data.PointsSchema(sc.MLDim)[1:]
	for _, variant := range []struct {
		label  string
		file   string
		format dfs.Format
	}{
		{"Hadoop (binary)", "data/feats_bin", dfs.Binary},
		{"Hadoop (text)", "data/feats_txt", dfs.Text},
	} {
		if _, err := data.WriteFile(e.FS, variant.file, variant.format, featSchema,
			func(emit emitFunc) error {
				return data.Points(sc.MLPoints, sc.MLDim, func(r row.Row) error { return emit(r[1:]) })
			}); err != nil {
			return err
		}
		timer := &ml.IterTimer{}
		if _, err := ml.KMeansMR(e.MR, variant.file, k, sc.MLDim, sc.MLIters, timer); err != nil {
			return err
		}
		r.Add(exp, variant.label, avgSeconds(timer.Durations), "")
	}
	return nil
}

// --------------------------------------------------------------------------
// §7.1 / Figure 13: job time vs number of reduce tasks.

func runFig13(ctx context.Context, sc Scale, r *Report) error {
	half := sc
	half.UserVisits /= 2
	e, err := newEnv(half, exec.Options{}, shuffle.Memory, "uservisits")
	if err != nil {
		return err
	}
	defer e.Close()

	taskCounts := []int{1, 2, 4, 8, 16, 32, 64}

	// Hadoop: the same aggregation as an MR job with varying reducers.
	for _, n := range taskCounts {
		secs, _, err := e.TimeHive(
			"SELECT countryCode, SUM(adRevenue) FROM uservisits GROUP BY countryCode", n)
		if err != nil {
			return err
		}
		r.Add("fig13: Hadoop-mode job time vs reduce tasks", fmt.Sprintf("%3d reduce tasks", n), secs, "")
	}

	// Spark-mode: the same aggregation as an RDD job with varying
	// reduce partitions on the low-overhead cluster.
	rows, err := e.FS.ReadAll("data/uservisits")
	if err != nil {
		return err
	}
	var pairs []any
	for _, rr := range rows {
		pairs = append(pairs, shuffle.Pair{K: rr[5], V: rr[3]})
	}
	sctx := e.Shark.Ctx
	base := sctx.Parallelize(pairs, sc.Workers*sc.Slots*2).Cache()
	if _, err := base.CountCtx(ctx); err != nil { // materialize cache
		return err
	}
	for _, n := range taskCounts {
		secs, err := timeIt(func() error {
			_, err := base.ReduceByKey(func(a, b any) any {
				x, _ := row.AsFloat(a)
				y, _ := row.AsFloat(b)
				return x + y
			}, n).CountCtx(ctx)
			return err
		})
		if err != nil {
			return err
		}
		r.Add("fig13: Spark-mode job time vs reduce tasks", fmt.Sprintf("%3d reduce tasks", n), secs, "")
	}
	return nil
}

// --------------------------------------------------------------------------
// §3.2 table: memory footprint of row formats.

func runColumnarFootprint(ctx context.Context, sc Scale, r *Report) error {
	exp := "tbl_columnar: lineitem in-memory footprint"
	rows := data.Collect(func(emit emitFunc) error {
		return data.Lineitem(sc.Lineitem, sc.Supplier, emit)
	})

	var boxed, serialized int64
	b := columnar.NewBuilder(data.LineitemSchema)
	for _, rr := range rows {
		boxed += shuffle.EstimateSize(rr)
		serialized += int64(len(row.EncodeBinary(nil, rr)))
		if err := b.Append(rr); err != nil {
			return err
		}
	}
	part := b.Seal()
	colBytes := part.SizeBytes()

	r.AddValue(exp, "boxed rows (MB)", float64(boxed)/(1<<20), "one object per field")
	r.AddValue(exp, "serialized (MB)", float64(serialized)/(1<<20),
		fmt.Sprintf("%.1fx smaller than boxed", float64(boxed)/float64(serialized)))
	r.AddValue(exp, "columnar+compressed (MB)", float64(colBytes)/(1<<20),
		fmt.Sprintf("%.1fx smaller than boxed", float64(boxed)/float64(colBytes)))
	return nil
}

// --------------------------------------------------------------------------
// §5 ablations.

// variant is one engine configuration of a Shark-only ablation.
type variant struct {
	label string
	opts  exec.Options
	mode  shuffle.Mode
}

// ablate times one query under each variant, every variant on a fresh
// environment of its own holding tables (and the selective UDF udf,
// unless ""), and notes the join strategies the engine chose — none
// for a join-free query.
func ablate(sc Scale, r *Report, exp, query string, variants []variant, udf string, tables ...string) error {
	for _, v := range variants {
		e, err := newEnv(sc, v.opts, v.mode, tables...)
		if err != nil {
			return err
		}
		if udf != "" {
			err = e.registerSelectiveUDF(udf)
		}
		var secs float64
		var res *core.Result
		if err == nil {
			secs, res, err = e.TimeShark(query)
		}
		e.Close()
		if err != nil {
			return err
		}
		r.Add(exp, v.label, secs, strings.Join(res.Stats.JoinStrategies, ","))
	}
	return nil
}

func runShuffleAblation(ctx context.Context, sc Scale, r *Report) error {
	return ablate(sc, r, "abl_shuffle: group-by with memory vs disk shuffle",
		"SELECT sourceIP, SUM(adRevenue) FROM uservisits_mem GROUP BY sourceIP",
		[]variant{
			{label: "memory shuffle (Shark default)", mode: shuffle.Memory},
			{label: "disk shuffle (Hadoop-style)", mode: shuffle.Disk},
		}, "", "uservisits_mem")
}

func runExprCompileAblation(ctx context.Context, sc Scale, r *Report) error {
	// Deliberately expression-heavy (dozens of operator nodes per
	// row) so expression evaluation, not scanning, dominates — the §5
	// profile of memstore-served queries. What §5 plans to win by
	// compiling evaluators to bytecode, this engine wins with typed
	// column kernels; the ablation runs the same scan through the row
	// adapter (expr's Eval on a scratch row) instead.
	const query = `SELECT
	SUM(L_EXTENDEDPRICE * (1.0 - L_DISCOUNT) * (1.0 + L_DISCOUNT * 0.5) - L_QUANTITY * 1.5),
	AVG((L_QUANTITY * 2 + 1) * (L_QUANTITY * 3 + 2) - (L_QUANTITY * 5 - 4) * 1.01),
	SUM(L_EXTENDEDPRICE / (L_QUANTITY + 1) + L_EXTENDEDPRICE / (L_QUANTITY + 2) + L_EXTENDEDPRICE / (L_QUANTITY + 3)),
	MAX(L_EXTENDEDPRICE * L_DISCOUNT * 0.25 + L_QUANTITY * 7 - 3)
	FROM lineitem_mem
	WHERE L_QUANTITY * 3 + L_QUANTITY * 2 > 25 AND L_DISCOUNT * 10.0 < 0.9
	AND L_EXTENDEDPRICE * 1.0001 > L_QUANTITY * 2.0`
	big := sc
	big.Lineitem = sc.LineitemBig
	return ablate(big, r, "abl_compile: typed kernels vs row adapter", query,
		[]variant{
			{label: "typed kernels (default)"},
			{label: "row adapter (DisableExprCompile)", opts: exec.Options{DisableExprCompile: true}},
		}, "", "lineitem_mem")
}

func runSkewAblation(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_binpack: skewed shuffle reduce-side strategies"
	// A combiner-less GroupByKey over zipf-skewed keys: reduce tasks
	// must materialize every value, so an unlucky coarse partition
	// that concentrates hot keys bounds the job (§3.1.2).
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory)
	if err != nil {
		return err
	}
	defer e.Close()
	sctx := e.Shark.Ctx

	nPairs := sc.UserVisits
	payload := strings.Repeat("x", 64)
	pairs := make([]any, nPairs)
	zipfKey := func(i int) int64 {
		// ~30% of mass on key 0, heavy tail over 64 keys
		r := (i * 2654435761) % 1000
		switch {
		case r < 300:
			return 0
		case r < 450:
			return 1
		case r < 550:
			return 2
		default:
			return int64(3 + (r % 61))
		}
	}
	for i := range pairs {
		pairs[i] = shuffle.Pair{K: zipfKey(i), V: payload}
	}
	base := sctx.Parallelize(pairs, sc.Workers*sc.Slots*2).Cache()
	if _, err := base.CountCtx(ctx); err != nil {
		return err
	}

	slots := sc.Workers * sc.Slots
	fine := slots * 8
	runGrouped := func(groups [][]int) (float64, int, error) {
		dep := sctx.NewShuffleDep(base, shuffle.HashPartitioner{N: fine}, nil)
		if _, err := sctx.Scheduler().MaterializeShuffleCtx(ctx, dep); err != nil {
			return 0, 0, err
		}
		grouped := sctx.Shuffled(dep, groups, rdd.ReadGroup)
		secs, err := timeIt(func() error {
			_, err := grouped.CountCtx(ctx)
			return err
		})
		return secs, grouped.NumPartitions(), err
	}

	// (a) few coarse reducers: fine buckets naively chained into
	// `slots` contiguous groups (hash-order, skew-blind).
	naive := make([][]int, slots)
	for b := 0; b < fine; b++ {
		naive[b*slots/fine] = append(naive[b*slots/fine], b)
	}
	secs, n, err := runGrouped(naive)
	if err != nil {
		return err
	}
	r.Add(exp, "few coarse reducers (skew-blind)", secs, fmt.Sprintf("%d reduce tasks", n))

	// (b) PDE bin-packing: observe bucket sizes, balance into `slots`
	// groups.
	depStats := sctx.NewShuffleDep(base, shuffle.HashPartitioner{N: fine}, nil)
	st, err := sctx.Scheduler().MaterializeShuffleCtx(ctx, depStats)
	if err != nil {
		return err
	}
	packed := pde.Coalesce(st.BucketBytes, slots)
	secs, n, err = runGrouped(packed)
	if err != nil {
		return err
	}
	r.Add(exp, "PDE bin-packed coalescing", secs, fmt.Sprintf("%d reduce tasks", n))

	// (c) just run many fine tasks (the paper's surprise winner).
	secs, n, err = runGrouped(nil)
	if err != nil {
		return err
	}
	r.Add(exp, "many fine tasks (no coalescing)", secs, fmt.Sprintf("%d reduce tasks", n))
	return nil
}

// --------------------------------------------------------------------------
// §3.5: map pruning effectiveness.

func runPruning(ctx context.Context, sc Scale, r *Report) error {
	exp := "pruning: warehouse queries, partitions scanned"
	one := func(label string, disable bool) error {
		e, err := newEnv(sc, exec.Options{DisablePruning: disable}, shuffle.Memory, "sessions_mem")
		if err != nil {
			return err
		}
		defer e.Close()
		var total float64
		scanned, totalParts := 0, 0
		for _, q := range warehouseQueries {
			secs, res, err := e.TimeShark(fmt.Sprintf(q.sql, "sessions_mem"))
			if err != nil {
				return err
			}
			total += secs
			scanned += res.Stats.ScannedPartitions
			totalParts += res.Stats.ScannedPartitions + res.Stats.PrunedPartitions
		}
		r.Add(exp, label, total, fmt.Sprintf("scanned %d/%d partitions over Q1-Q4", scanned, totalParts))
		return nil
	}
	if err := one("map pruning on", false); err != nil {
		return err
	}
	return one("map pruning off", true)
}

// --------------------------------------------------------------------------
// Figure 1: the headline summary — two warehouse queries + one
// logistic regression iteration, Shark vs Hive/Hadoop.

func runFig1(ctx context.Context, sc Scale, r *Report) error {
	if err := fig1Queries(sc, r); err != nil {
		return err
	}
	e, points, err := mlEnv(sc)
	if err != nil {
		return err
	}
	defer e.Close()
	exp := "fig1: logistic regression (1 iteration)"
	timer := &ml.IterTimer{}
	if _, err := ml.LogisticRegressionCtx(ctx, points, sc.MLDim, 2, 1e-4, timer); err != nil {
		return err
	}
	r.Add(exp, "Shark", timer.Durations[1].Seconds(), "")
	timer = &ml.IterTimer{}
	if _, err := ml.LogisticRegressionMR(e.MR, "data/points", sc.MLDim, 1, 1e-4, timer); err != nil {
		return err
	}
	r.Add(exp, "Hadoop", timer.Durations[0].Seconds(), "")
	return nil
}

func fig1Queries(sc Scale, r *Report) error {
	e, err := newEnv(sc, exec.Options{}, shuffle.Memory, "sessions_mem")
	if err != nil {
		return err
	}
	defer e.Close()
	systems := []system{
		{label: "Shark", suffix: "_mem"},
		{label: "Hive", hive: true, reducers: sc.Workers * sc.Slots},
	}
	for i, q := range warehouseQueries[:2] {
		if err := compare(e, r, fmt.Sprintf("fig1: user query %d", i+1), q.sql, systems, "sessions"); err != nil {
			return err
		}
	}
	return nil
}
