// Log analytics: the §6.4 warehouse scenario. A wide session fact
// table with naturally clustered date/country columns is cached in the
// memstore; queries with selective predicates are answered at
// interactive latency because map pruning (§3.5) skips most partitions
// using load-time statistics.
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
	cl, err := shark.NewCluster(shark.ClusterConfig{Workers: 8})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	s, err := cl.NewSession(shark.SessionConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// 200k video sessions over 30 days, appended per-country in
	// chronological order — the natural clustering of datacenter logs.
	var rows []shark.Row
	data.Sessions(200000, 30, 50, func(r row.Row) error {
		rows = append(rows, r)
		return nil
	})
	if err := s.LoadRows("sessions", data.SessionsSchema, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println("loading 200k sessions into the columnar memstore...")
	start := time.Now()
	if _, err := s.Exec(`CREATE TABLE sessions_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM sessions`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded in %.2fs\n\n", time.Since(start).Seconds())

	queries := []struct {
		name string
		sql  string
	}{
		{"daily quality report (one day, one country)",
			`SELECT COUNT(*) AS sessions, AVG(buffering_ms), AVG(bitrate_kbps), SUM(failures)
			 FROM sessions_mem
			 WHERE session_day = Date('2012-06-15') AND country = 'DE'`},
		{"audience segments by device (date range)",
			`SELECT device, COUNT(*) AS sessions, COUNT(DISTINCT user_id) AS users, AVG(quality_score)
			 FROM sessions_mem
			 WHERE session_day BETWEEN Date('2012-06-10') AND Date('2012-06-12')
			 GROUP BY device ORDER BY sessions DESC`},
		{"worst ISPs for rebuffering (single country)",
			`SELECT isp, AVG(rebuffers) AS avg_rebuffers FROM sessions_mem
			 WHERE country = 'VN'
			 GROUP BY isp ORDER BY avg_rebuffers DESC LIMIT 5`},
	}
	for _, q := range queries {
		start := time.Now()
		res, err := s.Exec(q.sql)
		if err != nil {
			log.Fatal(err)
		}
		total := res.Stats.ScannedPartitions + res.Stats.PrunedPartitions
		fmt.Printf("%s\n  %.3fs — scanned %d of %d partitions (map pruning skipped %d)\n",
			q.name, time.Since(start).Seconds(),
			res.Stats.ScannedPartitions, total, res.Stats.PrunedPartitions)
		for _, r := range res.Rows {
			fmt.Printf("    %v\n", r)
		}
		fmt.Println()
	}
}
