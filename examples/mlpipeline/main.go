// ML pipeline: the paper's Listing 1. A SQL query selects and joins
// training data, sql2rdd hands the result over as an RDD without
// leaving the cluster, MapRows extracts features, and logistic
// regression iterates over the cached feature RDD — SQL and machine
// learning in one engine with shared fault tolerance (§4).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"shark"
	"shark/ml"
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

	// users(uid, age, country); comments(uid, spam_score, length):
	// spammers skew young, have high spam scores and short comments.
	rng := rand.New(rand.NewSource(1))
	userSchema := shark.Schema{
		{Name: "uid", Type: shark.TInt},
		{Name: "age", Type: shark.TInt},
		{Name: "country", Type: shark.TString},
		{Name: "is_spammer", Type: shark.TInt},
	}
	commentSchema := shark.Schema{
		{Name: "uid", Type: shark.TInt},
		{Name: "spam_score", Type: shark.TFloat},
		{Name: "length", Type: shark.TInt},
	}
	var users, comments []shark.Row
	for i := 0; i < 30000; i++ {
		spammer := int64(0)
		age := int64(25 + rng.Intn(40))
		if rng.Intn(5) == 0 {
			spammer = 1
			age = int64(18 + rng.Intn(12))
		}
		users = append(users, shark.Row{int64(i), age, "US", spammer})
		score := rng.Float64() * 0.3
		length := int64(80 + rng.Intn(300))
		if spammer == 1 {
			score = 0.5 + rng.Float64()*0.5
			length = int64(5 + rng.Intn(60))
		}
		comments = append(comments, shark.Row{int64(i), score, length})
	}
	if err := s.LoadRows("users", userSchema, users); err != nil {
		log.Fatal(err)
	}
	if err := s.LoadRows("comments", commentSchema, comments); err != nil {
		log.Fatal(err)
	}

	// Listing 1: sql2rdd — the query result stays distributed.
	table, err := s.Query(`SELECT u.age, c.spam_score, c.length, u.is_spammer
		FROM users u JOIN comments c ON c.uid = u.uid`)
	if err != nil {
		log.Fatal(err)
	}

	// Feature extraction with schema-aware row access, then cache the
	// feature RDD so every gradient iteration reads memory.
	features := table.MapRows(func(r shark.RowView) any {
		label := -1.0
		if r.GetInt("is_spammer") == 1 {
			label = 1.0
		}
		return ml.LabeledPoint{
			X: ml.Vector{
				float64(r.GetInt("age")) / 100,
				r.GetFloat("spam_score"),
				float64(r.GetInt("length")) / 400,
			},
			Y: label,
		}
	}).Cache()

	timer := &ml.IterTimer{}
	start := time.Now()
	w, err := ml.LogisticRegression(features, 3, 10, 0.0005, timer)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained 10 iterations in %.2fs\n", time.Since(start).Seconds())
	fmt.Printf("first iteration (includes cache load): %.3fs\n", timer.Durations[0].Seconds())
	fmt.Printf("steady-state iteration:                %.3fs\n", timer.Durations[len(timer.Durations)-1].Seconds())
	fmt.Printf("weights: age=%.3f spam_score=%.3f length=%.3f\n", w[0], w[1], w[2])

	// Evaluate on the training data via the same RDD.
	correct, err := features.Map(func(v any) any {
		p := v.(ml.LabeledPoint)
		pred := -1.0
		if w.Dot(p.X) > 0 {
			pred = 1.0
		}
		if pred == p.Y {
			return int64(1)
		}
		return int64(0)
	}).Reduce(func(a, b any) any { return a.(int64) + b.(int64) })
	if err != nil {
		log.Fatal(err)
	}
	n, _ := features.Count()
	fmt.Printf("training accuracy: %.1f%% over %d joined examples\n",
		100*float64(correct.(int64))/float64(n), n)
}
