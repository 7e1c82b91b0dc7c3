// Quickstart: boot an embedded Shark cluster, load a table, cache it
// in the columnar memstore, and run SQL — the §2 "CREATE TABLE ... AS
// SELECT" flow end to end.
package main

import (
	"fmt"
	"log"

	"shark"
)

func main() {
	// An 8-worker simulated cluster with 2 task slots per worker.
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

	// Some web logs.
	schema := shark.Schema{
		{Name: "url", Type: shark.TString},
		{Name: "status", Type: shark.TInt},
		{Name: "latency_ms", Type: shark.TInt},
		{Name: "country", Type: shark.TString},
	}
	countries := []string{"US", "DE", "VN", "BR"}
	var rows []shark.Row
	for i := 0; i < 50000; i++ {
		status := int64(200)
		if i%17 == 0 {
			status = 500
		}
		rows = append(rows, shark.Row{
			fmt.Sprintf("/page/%d", i%300),
			status,
			int64(5 + i%190),
			countries[i%len(countries)],
		})
	}
	if err := s.LoadRows("logs", schema, rows); err != nil {
		log.Fatal(err)
	}

	// Pin the hot data in the in-memory columnar store (paper §2:
	// TBLPROPERTIES("shark.cache"="true")).
	must(s.Exec(`CREATE TABLE logs_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM logs`))

	res := must(s.Exec(`
		SELECT country, COUNT(*) AS requests,
		       SUM(CASE WHEN status = 500 THEN 1 ELSE 0 END) AS errors,
		       AVG(latency_ms) AS avg_latency
		FROM logs_mem
		GROUP BY country
		ORDER BY requests DESC`))
	fmt.Println("per-country traffic:")
	for _, r := range res.Rows {
		fmt.Printf("  %-3v %6v requests  %4v errors  avg %.1f ms\n", r[0], r[1], r[2], r[3])
	}

	res = must(s.Exec(`
		SELECT url, COUNT(*) AS hits FROM logs_mem
		WHERE status = 500
		GROUP BY url ORDER BY hits DESC LIMIT 5`))
	fmt.Println("\ntop error pages:")
	for _, r := range res.Rows {
		fmt.Printf("  %-12v %v\n", r[0], r[1])
	}
}

func must(res *shark.Result, err error) *shark.Result {
	if err != nil {
		log.Fatal(err)
	}
	return res
}
