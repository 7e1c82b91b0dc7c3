// Fault tolerance: the §6.3.3 experiment as a demo. A table cached
// across workers loses one node; the next query transparently
// recomputes the lost columnar partitions from lineage while running,
// instead of failing or reloading everything.
package main

import (
	"fmt"
	"log"
	"time"

	"shark"
	"shark/internal/data"
	"shark/internal/row"
)

func main() {
	cl, err := shark.NewCluster(shark.ClusterConfig{Workers: 10})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	s, err := cl.NewSession(shark.SessionConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	var rows []shark.Row
	data.Lineitem(150000, 5000, func(r row.Row) error {
		rows = append(rows, r)
		return nil
	})
	if err := s.LoadRows("lineitem", data.LineitemSchema, rows); err != nil {
		log.Fatal(err)
	}

	fmt.Println("caching 150k lineitem rows across 10 workers...")
	load := stopwatch(func() {
		if _, err := s.Exec(`CREATE TABLE lineitem_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM lineitem`); err != nil {
			log.Fatal(err)
		}
	})
	fmt.Printf("  full load: %.3fs\n\n", load)

	const query = `SELECT L_SHIPMODE, COUNT(*), SUM(L_EXTENDEDPRICE) FROM lineitem_mem GROUP BY L_SHIPMODE`

	run := func(label string) {
		var res *shark.Result
		secs := stopwatch(func() {
			var err error
			res, err = s.Exec(query)
			if err != nil {
				log.Fatal(err)
			}
		})
		var total int64
		for _, r := range res.Rows {
			total += r[1].(int64)
		}
		fmt.Printf("  %-28s %.3fs  (%d groups, %d rows counted)\n", label, secs, len(res.Rows), total)
	}

	run("query, no failures:")

	fmt.Println("\nkilling worker 3 (its cached partitions and shuffle outputs are gone)...")
	cl.Kill(3)

	run("query during recovery:")
	m := s.Ctx.Scheduler().Metrics()
	fmt.Printf("  scheduler recovered by re-running %d map tasks (lineage), %d fetch failures seen\n",
		m.MapStageReruns.Load(), m.FetchFailures.Load())

	run("\n  post-recovery query:")
	fmt.Printf("\nlive workers: %v of 10 — same results, no reload, no aborted query\n",
		len(s.Cluster.AliveWorkers()))
}

func stopwatch(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}
