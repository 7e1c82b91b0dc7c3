// Command shark-sql is an interactive SQL shell. By default it runs
// over an embedded simulated Shark cluster; with -attach it connects
// to a running shark-server through the shark/driver database/sql
// driver instead.
//
// Usage:
//
//	shark-sql -demo                 # preload demo tables, then REPL
//	shark-sql -e "SELECT ..."       # one-shot
//	shark-sql -priority 4           # weighted fair-share session weight
//	shark-sql -attach localhost:7433 -token secret
//	echo "SELECT 1+1" | shark-sql
//
// The -demo flag loads two Pavlo-benchmark tables (rankings,
// uservisits) and caches them in the memstore as rankings_mem and
// uservisits_mem.
//
// Prefix any SELECT with EXPLAIN to print its plan, or with EXPLAIN
// ANALYZE to execute it and print the plan annotated with measured
// per-operator wall time, row counts and the adaptive-execution
// decisions taken (docs/OBSERVABILITY.md).
package main

import (
	"bufio"
	"database/sql"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	"shark"
	"shark/internal/data"
	"shark/internal/row"

	_ "shark/driver" // registers the "shark" database/sql driver
)

func main() {
	demo := flag.Bool("demo", false, "preload demo tables")
	oneShot := flag.String("e", "", "execute one statement and exit")
	workers := flag.Int("workers", 8, "simulated workers")
	priority := flag.Int("priority", 1, "session fair-share weight (weighted fair scheduling)")
	attach := flag.String("attach", "", "connect to a shark-server at host:port instead of running embedded")
	token := flag.String("token", "", "auth token for -attach")
	flag.Parse()

	var exec func(sql string) error
	if *attach != "" {
		dsn := *attach + "?catalog=shared&session=shell&priority=" + fmt.Sprint(*priority)
		if *token != "" {
			dsn += "&token=" + url.QueryEscape(*token)
		}
		db, err := sql.Open("shark", dsn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer db.Close()
		// One shell = one session: never let the pool fan out.
		db.SetMaxOpenConns(1)
		if err := db.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "cannot attach to %s: %v\n", *attach, err)
			os.Exit(1)
		}
		if *demo {
			fmt.Fprintln(os.Stderr, "-demo is embedded-only; start shark-server -demo instead")
			os.Exit(1)
		}
		exec = func(stmt string) error { return runRemote(db, stmt) }
	} else {
		cl, err := shark.NewCluster(shark.ClusterConfig{Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cl.Close()
		s, err := cl.NewSession(shark.SessionConfig{Priority: *priority})
		if err != nil {
			cl.Close() // os.Exit skips the deferred Close
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer s.Close()
		if *demo {
			if err := loadDemo(s); err != nil {
				fmt.Fprintln(os.Stderr, "demo load failed:", err)
				os.Exit(1)
			}
			fmt.Println("demo tables: rankings, uservisits (DFS); rankings_mem, uservisits_mem (memstore)")
		}
		exec = func(stmt string) error { return runStatement(s, stmt) }
	}

	if *oneShot != "" {
		if err := exec(*oneShot); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<16), 1<<20)
	interactive := isTerminal()
	if interactive {
		fmt.Println("shark-sql — enter SQL statements, 'exit' to quit; EXPLAIN ANALYZE <select> shows a measured plan")
	}
	var pending strings.Builder
	for {
		if interactive {
			if pending.Len() == 0 {
				fmt.Print("shark> ")
			} else {
				fmt.Print("    -> ")
			}
		}
		if !in.Scan() {
			return
		}
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && (trimmed == "exit" || trimmed == "quit") {
			return
		}
		pending.WriteString(line)
		pending.WriteString(" ")
		if !strings.HasSuffix(trimmed, ";") && interactive {
			if trimmed != "" {
				continue // accumulate until ';'
			}
		}
		stmt := strings.TrimSpace(pending.String())
		pending.Reset()
		if stmt == "" {
			continue
		}
		if err := exec(stmt); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

func isTerminal() bool {
	fi, err := os.Stdin.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

func runStatement(s *shark.Session, sql string) error {
	start := time.Now()
	res, err := s.Exec(sql)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if res.Message != "" {
		fmt.Println(res.Message)
	}
	if len(res.Schema) > 0 {
		printTable(res.Schema, res.Rows)
	}
	fmt.Printf("(%d rows, %.3fs)\n", len(res.Rows), elapsed.Seconds())
	return nil
}

// runRemote executes one statement on the attached server and prints
// the result like the embedded path does. Schema-less statements
// (DDL, cache directives) print "ok".
func runRemote(db *sql.DB, stmt string) error {
	start := time.Now()
	rows, err := db.Query(stmt)
	if err != nil {
		return err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return err
	}
	n := 0
	var cells [][]string
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return err
		}
		if len(cells) < 50 {
			line := make([]string, len(vals))
			for i, v := range vals {
				if t, ok := v.(time.Time); ok {
					line[i] = t.Format("2006-01-02")
				} else {
					line[i] = row.FormatValue(v)
				}
			}
			cells = append(cells, line)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	if len(cols) == 0 {
		fmt.Println("ok")
	} else {
		printGrid(cols, cells, n-len(cells))
	}
	fmt.Printf("(%d rows, %.3fs)\n", n, elapsed.Seconds())
	return nil
}

func printTable(schema shark.Schema, rows []shark.Row) {
	const maxRows = 50
	shown := rows
	if len(shown) > maxRows {
		shown = shown[:maxRows]
	}
	headers := make([]string, len(schema))
	for i, f := range schema {
		headers[i] = f.Name
	}
	cells := make([][]string, len(shown))
	for ri, r := range shown {
		cells[ri] = make([]string, len(r))
		for ci := range r {
			v := row.FormatValue(r[ci])
			if schema[ci].Type == shark.TDate {
				if d, ok := r[ci].(int64); ok {
					v = row.FormatDate(d)
				}
			}
			cells[ri][ci] = v
		}
	}
	printGrid(headers, cells, len(rows)-len(shown))
}

// printGrid renders an aligned header + rows table, noting how many
// rows were elided.
func printGrid(headers []string, cells [][]string, elided int) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range cells {
		for ci, v := range r {
			if len(v) > widths[ci] {
				widths[ci] = len(v)
			}
		}
	}
	for i, h := range headers {
		fmt.Printf("%-*s  ", widths[i], h)
	}
	fmt.Println()
	for i := range headers {
		fmt.Print(strings.Repeat("-", widths[i]), "  ")
	}
	fmt.Println()
	for _, r := range cells {
		for ci, v := range r {
			fmt.Printf("%-*s  ", widths[ci], v)
		}
		fmt.Println()
	}
	if elided > 0 {
		fmt.Printf("... (%d more rows)\n", elided)
	}
}

func loadDemo(s *shark.Session) error {
	var rankings []shark.Row
	data.Rankings(20000, func(r row.Row) error {
		rankings = append(rankings, r)
		return nil
	})
	if err := s.LoadRows("rankings", data.RankingsSchema, rankings); err != nil {
		return err
	}
	var visits []shark.Row
	data.UserVisits(60000, 20000, func(r row.Row) error {
		visits = append(visits, r)
		return nil
	})
	if err := s.LoadRows("uservisits", data.UserVisitsSchema, visits); err != nil {
		return err
	}
	for _, stmt := range []string{
		`CREATE TABLE rankings_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM rankings`,
		`CREATE TABLE uservisits_mem TBLPROPERTIES ("shark.cache"="true") AS SELECT * FROM uservisits`,
	} {
		if _, err := s.Exec(stmt); err != nil {
			return err
		}
	}
	return nil
}
