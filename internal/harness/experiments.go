package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"shark/internal/columnar"
	"shark/internal/data"
	"shark/internal/dfs"
	"shark/internal/exec"
	"shark/internal/ml"
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
	"fig1":            runFig1,
	"fig5_selection":  runFig5Selection,
	"fig5_agg":        runFig5Agg,
	"fig6_join":       runFig6Join,
	"loading":         runLoading,
	"fig7":            runFig7,
	"fig8":            runFig8,
	"fig9":            runFig9,
	"fig10":           runFig10,
	"fig11":           runFig11,
	"fig12":           runFig12,
	"fig13":           runFig13,
	"tbl_columnar":    runColumnarFootprint,
	"abl_shuffle":     runShuffleAblation,
	"abl_compile":     runExprCompileAblation,
	"abl_binpack":     runSkewAblation,
	"abl_dispatch":    runDispatch,
	"abl_memory":      runMemory,
	"abl_storage":     runStorage,
	"abl_concurrency": runConcurrency,
	"abl_priority":    runPriority,
	"abl_obs":         runObs,
	"abl_pde":         runPDE,
	"abl_serving":     runServing,
	"abl_qps":         runQPS,
	"pruning":         runPruning,
}

// pavloEnv generates rankings + uservisits and caches them in Shark.
func pavloEnv(sc Scale, opts exec.Options) (*Env, error) {
	e, err := NewEnv(sc, opts)
	if err != nil {
		return nil, err
	}
	if err := e.GenTable("rankings", data.RankingsSchema, func(emit func(row.Row) error) error {
		return data.Rankings(sc.Rankings, emit)
	}); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.GenTable("uservisits", data.UserVisitsSchema, func(emit func(row.Row) error) error {
		return data.UserVisits(sc.UserVisits, sc.Rankings, emit)
	}); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.CacheTable("rankings", "", nil); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.CacheTable("uservisits", "", nil); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

// threeWay times a query on Shark (memstore), Shark (disk) and Hive,
// appending the three series.
func threeWay(e *Env, r *Report, exp, memSQL, diskSQL string, tunedReducers int) error {
	secs, res, err := e.TimeShark(memSQL)
	if err != nil {
		return fmt.Errorf("shark mem: %w", err)
	}
	r.Add(exp, "Shark", secs, fmt.Sprintf("%d rows", len(res.Rows)))
	secs, _, err = e.TimeShark(diskSQL)
	if err != nil {
		return fmt.Errorf("shark disk: %w", err)
	}
	r.Add(exp, "Shark (disk)", secs, "")
	secs, hres, err := e.TimeHive(diskSQL, tunedReducers)
	if err != nil {
		return fmt.Errorf("hive: %w", err)
	}
	r.Add(exp, "Hive", secs, fmt.Sprintf("%d MR jobs", hres.Jobs))
	return nil
}

// --------------------------------------------------------------------------
// §6.2.1 / Figure 5: selection.

func runFig5Selection(ctx context.Context, sc Scale, r *Report) error {
	e, err := pavloEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	const pred = "pageRank > 9000"
	return threeWay(e, r, "fig5_selection: SELECT pageURL,pageRank WHERE "+pred,
		"SELECT pageURL, pageRank FROM rankings_mem WHERE "+pred,
		"SELECT pageURL, pageRank FROM rankings WHERE "+pred, 0)
}

// --------------------------------------------------------------------------
// §6.2.2 / Figure 5: the two aggregation queries.

func runFig5Agg(ctx context.Context, sc Scale, r *Report) error {
	e, err := pavloEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	tuned := sc.Workers * sc.Slots
	if err := threeWay(e, r, "fig5_agg: GROUP BY sourceIP (many groups)",
		"SELECT sourceIP, SUM(adRevenue) FROM uservisits_mem GROUP BY sourceIP",
		"SELECT sourceIP, SUM(adRevenue) FROM uservisits GROUP BY sourceIP", tuned); err != nil {
		return err
	}
	return threeWay(e, r, "fig5_agg: GROUP BY SUBSTR(sourceIP,1,7) (~1K groups)",
		"SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits_mem GROUP BY SUBSTR(sourceIP, 1, 7)",
		"SELECT SUBSTR(sourceIP, 1, 7), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 7)", tuned)
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
	e, err := pavloEnv(sc, exec.Options{})
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
	secs, res, err := e.TimeShark(fmt.Sprintf(pavloJoinTemplate, "v_cop", "r_cop"))
	if err != nil {
		return fmt.Errorf("copartitioned: %w", err)
	}
	strategy := strings.Join(res.Stats.JoinStrategies, ",")
	r.Add(exp, "Copartitioned", secs, strategy)

	return threeWay(e, r, exp,
		fmt.Sprintf(pavloJoinTemplate, "uservisits_mem", "rankings_mem"),
		fmt.Sprintf(pavloJoinTemplate, "uservisits", "rankings"),
		sc.Workers*sc.Slots)
}

// --------------------------------------------------------------------------
// §6.2.4 / §3.3: data loading throughput, DFS vs memstore.

func runLoading(ctx context.Context, sc Scale, r *Report) error {
	e, err := NewEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	if err := e.GenTable("uservisits", data.UserVisitsSchema, func(emit func(row.Row) error) error {
		return data.UserVisits(sc.UserVisits, sc.Rankings, emit)
	}); err != nil {
		return err
	}
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
	memSecs, err := timeIt(func() error {
		return e.CacheTable("uservisits", "", nil)
	})
	if err != nil {
		return err
	}
	r.Add("loading: ingest uservisits ("+fmt.Sprintf("%.1f MB", mb)+")", "into DFS (3x replicated)", dfsSecs,
		fmt.Sprintf("%.1f MB/s", mb/dfsSecs))
	r.Add("loading: ingest uservisits ("+fmt.Sprintf("%.1f MB", mb)+")", "into memstore (columnar)", memSecs,
		fmt.Sprintf("%.1f MB/s", mb/memSecs))
	return nil
}

// --------------------------------------------------------------------------
// §6.3.1 / Figure 7: aggregation sweep over group cardinalities on
// lineitem, both dataset scales, with tuned and untuned Hive.

func runFig7(ctx context.Context, sc Scale, r *Report) error {
	for _, ds := range []struct {
		label string
		rows  int
	}{
		{"100GB-scale", sc.Lineitem},
		{"1TB-scale", sc.LineitemBig},
	} {
		if err := runFig7One(ctx, sc, r, ds.label, ds.rows); err != nil {
			return err
		}
	}
	return nil
}

func runFig7One(ctx context.Context, sc Scale, r *Report, label string, rows int) error {
	e, err := NewEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	if err := e.GenTable("lineitem", data.LineitemSchema, func(emit func(row.Row) error) error {
		return data.Lineitem(rows, sc.Supplier, emit)
	}); err != nil {
		return err
	}
	if err := e.CacheTable("lineitem", "", nil); err != nil {
		return err
	}
	queries := []struct {
		groups string
		sql    string
	}{
		{"1 group", "SELECT COUNT(*) FROM %s"},
		{"7 groups", "SELECT L_SHIPMODE, COUNT(*) FROM %s GROUP BY L_SHIPMODE"},
		{"2.5K groups", "SELECT L_RECEIPTDATE, COUNT(*) FROM %s GROUP BY L_RECEIPTDATE"},
		{"high-card groups", "SELECT L_ORDERKEY, COUNT(*) FROM %s GROUP BY L_ORDERKEY"},
	}
	tuned := sc.Workers * sc.Slots
	for _, q := range queries {
		exp := fmt.Sprintf("fig7 %s: %s", label, q.groups)
		secs, _, err := e.TimeShark(fmt.Sprintf(q.sql, "lineitem_mem"))
		if err != nil {
			return err
		}
		r.Add(exp, "Shark", secs, "")
		secs, _, err = e.TimeShark(fmt.Sprintf(q.sql, "lineitem"))
		if err != nil {
			return err
		}
		r.Add(exp, "Shark (disk)", secs, "")
		secs, _, err = e.TimeHive(fmt.Sprintf(q.sql, "lineitem"), tuned)
		if err != nil {
			return err
		}
		r.Add(exp, "Hive (tuned)", secs, fmt.Sprintf("%d reducers", tuned))
		secs, hres, err := e.TimeHive(fmt.Sprintf(q.sql, "lineitem"), 0)
		if err != nil {
			return err
		}
		r.Add(exp, "Hive", secs, fmt.Sprintf("%d reducers (auto)", hres.ReduceTasks))
	}
	return nil
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
	for _, mode := range []struct {
		label string
		mode  exec.StrategyMode
	}{
		{"Static", exec.StrategyStatic},
		{"Adaptive", exec.StrategyAdaptive},
		{"Static + Adaptive", exec.StrategyStaticAdaptive},
	} {
		e, err := NewEnv(sc, exec.Options{JoinStrategy: mode.mode, BroadcastThreshold: threshold})
		if err != nil {
			return err
		}
		if err := e.GenTable("lineitem", data.LineitemSchema, func(emit func(row.Row) error) error {
			return data.Lineitem(sc.LineitemBig, sc.Supplier, emit)
		}); err != nil {
			e.Close()
			return err
		}
		if err := e.GenTable("supplier", data.SupplierSchema, func(emit func(row.Row) error) error {
			return data.Supplier(sc.Supplier, emit)
		}); err != nil {
			e.Close()
			return err
		}
		if err := e.CacheTable("lineitem", "", nil); err != nil {
			e.Close()
			return err
		}
		if err := e.CacheTable("supplier", "", nil); err != nil {
			e.Close()
			return err
		}
		// The UDF selects 1 in 1000 suppliers (paper: 1000 of 10M),
		// invisible to the static optimizer.
		err = e.Shark.RegisterUDF("SOME_UDF", row.TBool, 1, 1, func(args []any) any {
			s, _ := args[0].(string)
			return strings.HasSuffix(s, "77")
		})
		if err != nil {
			e.Close()
			return err
		}
		secs, res, err := e.TimeShark(query)
		if err != nil {
			e.Close()
			return err
		}
		r.Add(exp, mode.label, secs, strings.Join(res.Stats.JoinStrategies, ","))
		e.Close()
	}
	return nil
}

// --------------------------------------------------------------------------
// §6.3.3 / Figure 9: mid-query fault tolerance.

func runFig9(ctx context.Context, sc Scale, r *Report) error {
	e, err := NewEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	exp := "fig9: group-by on cached lineitem with a worker failure"
	if err := e.GenTable("lineitem", data.LineitemSchema, func(emit func(row.Row) error) error {
		return data.Lineitem(sc.Lineitem, sc.Supplier, emit)
	}); err != nil {
		return err
	}
	const query = "SELECT L_SHIPMODE, COUNT(*), SUM(L_EXTENDEDPRICE) FROM lineitem_mem GROUP BY L_SHIPMODE"

	// Full reload: cache load + query.
	reload, err := timeIt(func() error {
		if err := e.CacheTable("lineitem", "", nil); err != nil {
			return err
		}
		_, err := e.SharkQuery(query)
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
		_, err := e.SharkQuery(query)
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

func warehouseEnv(sc Scale, opts exec.Options) (*Env, error) {
	e, err := NewEnv(sc, opts)
	if err != nil {
		return nil, err
	}
	if err := e.GenTable("sessions", data.SessionsSchema, func(emit func(row.Row) error) error {
		return data.Sessions(sc.Sessions, 30, 50, emit)
	}); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.CacheTable("sessions", "", nil); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

func runFig10(ctx context.Context, sc Scale, r *Report) error {
	e, err := warehouseEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	for _, q := range warehouseQueries {
		exp := "fig10 " + q.name
		secs, res, err := e.TimeShark(fmt.Sprintf(q.sql, "sessions_mem"))
		if err != nil {
			return fmt.Errorf("%s shark: %w", q.name, err)
		}
		prune := ""
		if res.Stats.PrunedPartitions > 0 {
			total := res.Stats.PrunedPartitions + res.Stats.ScannedPartitions
			prune = fmt.Sprintf("scanned %d/%d parts", res.Stats.ScannedPartitions, total)
		}
		r.Add(exp, "Shark", secs, prune)
		secs, _, err = e.TimeShark(fmt.Sprintf(q.sql, "sessions"))
		if err != nil {
			return err
		}
		r.Add(exp, "Shark (disk)", secs, "")
		secs, _, err = e.TimeHive(fmt.Sprintf(q.sql, "sessions"), sc.Workers*sc.Slots)
		if err != nil {
			return fmt.Errorf("%s hive: %w", q.name, err)
		}
		r.Add(exp, "Hive", secs, "")
	}
	return nil
}

// --------------------------------------------------------------------------
// §6.5 / Figures 11 & 12: machine learning per-iteration runtimes.

func mlEnv(sc Scale) (*Env, *rdd.RDD, error) {
	e, err := NewEnv(sc, exec.Options{})
	if err != nil {
		return nil, nil, err
	}
	// Relational form in DFS: text (the Hadoop-text baseline input)...
	if err := e.GenTable("points", data.PointsSchema(sc.MLDim), func(emit func(row.Row) error) error {
		return data.Points(sc.MLPoints, sc.MLDim, emit)
	}); err != nil {
		e.Close()
		return nil, nil, err
	}
	// ...binary for the Hadoop-binary baseline...
	if _, err := data.WriteFile(e.FS, "data/points_bin", dfs.Binary, data.PointsSchema(sc.MLDim),
		func(emit func(row.Row) error) error { return data.Points(sc.MLPoints, sc.MLDim, emit) }); err != nil {
		e.Close()
		return nil, nil, err
	}
	// ...and cached in Shark's memstore, pulled out via sql2rdd (§4.1).
	if err := e.CacheTable("points", "", nil); err != nil {
		e.Close()
		return nil, nil, err
	}
	tr, err := e.Shark.Query("SELECT * FROM points_mem")
	if err != nil {
		e.Close()
		return nil, nil, err
	}
	pointsRDD := tr.RDD.Map(func(v any) any {
		p, err := ml.RowToLabeledPoint(v.(row.Row))
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

	timer = &ml.IterTimer{}
	if _, err := ml.LogisticRegressionMR(e.MR, "data/points_bin", sc.MLDim, sc.MLIters, 1e-4, timer); err != nil {
		return err
	}
	r.Add(exp, "Hadoop (binary)", avgSeconds(timer.Durations), "")

	timer = &ml.IterTimer{}
	if _, err := ml.LogisticRegressionMR(e.MR, "data/points", sc.MLDim, sc.MLIters, 1e-4, timer); err != nil {
		return err
	}
	r.Add(exp, "Hadoop (text)", avgSeconds(timer.Durations), "")
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
			func(emit func(row.Row) error) error {
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
	e, err := NewEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	defer e.Close()
	if err := e.GenTable("uservisits", data.UserVisitsSchema, func(emit func(row.Row) error) error {
		return data.UserVisits(sc.UserVisits/2, sc.Rankings, emit)
	}); err != nil {
		return err
	}

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
	rows := data.Collect(func(emit func(row.Row) error) error {
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

func runShuffleAblation(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_shuffle: group-by with memory vs disk shuffle"
	for _, variant := range []struct {
		label string
		mode  shuffle.Mode
	}{
		{"memory shuffle (Shark default)", shuffle.Memory},
		{"disk shuffle (Hadoop-style)", shuffle.Disk},
	} {
		e, err := newEnv(sc, exec.Options{}, variant.mode)
		if err != nil {
			return err
		}
		if err := e.GenTable("uservisits", data.UserVisitsSchema, func(emit func(row.Row) error) error {
			return data.UserVisits(sc.UserVisits, sc.Rankings, emit)
		}); err != nil {
			e.Close()
			return err
		}
		if err := e.CacheTable("uservisits", "", nil); err != nil {
			e.Close()
			return err
		}
		secs, _, err := e.TimeShark("SELECT sourceIP, SUM(adRevenue) FROM uservisits_mem GROUP BY sourceIP")
		if err != nil {
			e.Close()
			return err
		}
		r.Add(exp, variant.label, secs, "")
		e.Close()
	}
	return nil
}

func runExprCompileAblation(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_compile: compiled closures vs interpreted evaluators"
	// Deliberately expression-heavy (dozens of operator nodes per
	// row) so evaluator dispatch, not scanning, dominates — the §5
	// profile of memstore-served queries.
	const query = `SELECT
	SUM(L_EXTENDEDPRICE * (1.0 - L_DISCOUNT) * (1.0 + L_DISCOUNT * 0.5) - L_QUANTITY * 1.5),
	AVG((L_QUANTITY * 2 + 1) * (L_QUANTITY * 3 + 2) - (L_QUANTITY * 5 - 4) * 1.01),
	SUM(L_EXTENDEDPRICE / (L_QUANTITY + 1) + L_EXTENDEDPRICE / (L_QUANTITY + 2) + L_EXTENDEDPRICE / (L_QUANTITY + 3)),
	MAX(L_EXTENDEDPRICE * L_DISCOUNT * 0.25 + L_QUANTITY * 7 - 3)
	FROM lineitem_mem
	WHERE L_QUANTITY * 3 + L_QUANTITY * 2 > 25 AND L_DISCOUNT * 10.0 < 0.9
	AND L_EXTENDEDPRICE * 1.0001 > L_QUANTITY * 2.0`
	for _, variant := range []struct {
		label   string
		disable bool
	}{
		{"compiled (Shark §5 optimization)", false},
		{"interpreted (Hive-style)", true},
	} {
		e, err := NewEnv(sc, exec.Options{DisableExprCompile: variant.disable})
		if err != nil {
			return err
		}
		if err := e.GenTable("lineitem", data.LineitemSchema, func(emit func(row.Row) error) error {
			return data.Lineitem(sc.LineitemBig, sc.Supplier, emit)
		}); err != nil {
			e.Close()
			return err
		}
		if err := e.CacheTable("lineitem", "", nil); err != nil {
			e.Close()
			return err
		}
		secs, _, err := e.TimeShark(query)
		if err != nil {
			e.Close()
			return err
		}
		r.Add(exp, variant.label, secs, "")
		e.Close()
	}
	return nil
}

func runSkewAblation(ctx context.Context, sc Scale, r *Report) error {
	exp := "abl_binpack: skewed shuffle reduce-side strategies"
	// A combiner-less GroupByKey over zipf-skewed keys: reduce tasks
	// must materialize every value, so an unlucky coarse partition
	// that concentrates hot keys bounds the job (§3.1.2).
	e, err := NewEnv(sc, exec.Options{})
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
	for _, variant := range []struct {
		label   string
		disable bool
	}{
		{"map pruning on", false},
		{"map pruning off", true},
	} {
		e, err := warehouseEnv(sc, exec.Options{DisablePruning: variant.disable})
		if err != nil {
			return err
		}
		var total float64
		scanned, totalParts := 0, 0
		for _, q := range warehouseQueries {
			secs, res, err := e.TimeShark(fmt.Sprintf(q.sql, "sessions_mem"))
			if err != nil {
				e.Close()
				return err
			}
			total += secs
			scanned += res.Stats.ScannedPartitions
			totalParts += res.Stats.ScannedPartitions + res.Stats.PrunedPartitions
		}
		note := fmt.Sprintf("scanned %d/%d partitions over Q1-Q4", scanned, totalParts)
		r.Add(exp, variant.label, total, note)
		e.Close()
	}
	return nil
}

// --------------------------------------------------------------------------
// Figure 1: the headline summary — two warehouse queries + one
// logistic regression iteration, Shark vs Hive/Hadoop.

func runFig1(ctx context.Context, sc Scale, r *Report) error {
	e, err := warehouseEnv(sc, exec.Options{})
	if err != nil {
		return err
	}
	for i, q := range warehouseQueries[:2] {
		exp := fmt.Sprintf("fig1: user query %d", i+1)
		secs, _, err := e.TimeShark(fmt.Sprintf(q.sql, "sessions_mem"))
		if err != nil {
			e.Close()
			return err
		}
		r.Add(exp, "Shark", secs, "")
		secs, _, err = e.TimeHive(fmt.Sprintf(q.sql, "sessions"), sc.Workers*sc.Slots)
		if err != nil {
			e.Close()
			return err
		}
		r.Add(exp, "Hive", secs, "")
	}
	e.Close()

	e2, points, err := mlEnv(sc)
	if err != nil {
		return err
	}
	defer e2.Close()
	exp := "fig1: logistic regression (1 iteration)"
	timer := &ml.IterTimer{}
	if _, err := ml.LogisticRegressionCtx(ctx, points, sc.MLDim, 2, 1e-4, timer); err != nil {
		return err
	}
	r.Add(exp, "Shark", timer.Durations[1].Seconds(), "")
	timer = &ml.IterTimer{}
	if _, err := ml.LogisticRegressionMR(e2.MR, "data/points", sc.MLDim, 1, 1e-4, timer); err != nil {
		return err
	}
	r.Add(exp, "Hadoop", timer.Durations[0].Seconds(), "")
	return nil
}
