package main

import (
	"fmt"
	"math/rand"

	"shark/internal/row"
)

// Seeded twins of the internal/data generators: same schemas and
// distributions, but internal/data hard-codes its seeds and the
// benchmark must draw every input from --seed. Each table salts the
// seed so two tables of one run are not correlated.

const (
	saltRankings   = 0x5241
	saltUserVisits = 0x5556
	saltSessions   = 0x5345
	saltPoints     = 0x5054
	saltParams     = 0x5041
)

func newRNG(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + salt))
}

var (
	countries        = []string{"USA", "CAN", "VNM", "DEU", "JPN", "BRA", "IND", "FRA", "GBR", "AUS"}
	agents           = []string{"Mozilla/5.0", "Chrome/24.0", "Safari/6.0", "Opera/12.1"}
	words            = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	sessionCountries = []string{"US", "CA", "GB", "DE", "VN", "JP", "BR", "IN"}
	cdns             = []string{"cdnA", "cdnB", "cdnC"}
	players          = []string{"flash", "html5", "ios", "android"}
	oses             = []string{"windows", "macos", "linux", "ios", "android"}
	devices          = []string{"desktop", "phone", "tablet", "tv"}
	exitStates       = []string{"completed", "abandoned", "errored"}
)

// sessionDays is how many days the sessions table spans; with rows
// ordered by (country, day) one (country, day) pair sits in one or two
// memstore partitions, which is what map pruning exploits.
const sessionDays = 15

func genRankings(seed int64, n int) []row.Row {
	rng := newRNG(seed, saltRankings)
	out := make([]row.Row, n)
	for i := range out {
		rank := int64(rng.Intn(10000))
		if rng.Intn(10) == 0 {
			rank = int64(rng.Intn(100))
		}
		out[i] = row.Row{fmt.Sprintf("url-%09d", i), rank, int64(rng.Intn(300) + 1)}
	}
	return out
}

func genUserVisits(seed int64, n, nURLs int) []row.Row {
	rng := newRNG(seed, saltUserVisits)
	base, _ := row.ParseDate("2000-01-01")
	out := make([]row.Row, n)
	for i := range out {
		out[i] = row.Row{
			fmt.Sprintf("%d.%d.%d.%d", rng.Intn(25)+100, rng.Intn(40)+10, rng.Intn(256), rng.Intn(256)),
			fmt.Sprintf("url-%09d", rng.Intn(nURLs)),
			base + int64(rng.Intn(90)),
			rng.Float64() * 1000,
			agents[rng.Intn(len(agents))],
			countries[rng.Intn(len(countries))],
			"en-US",
			words[rng.Intn(len(words))],
			int64(rng.Intn(600) + 1),
		}
	}
	return out
}

func sessionBaseDay() int64 {
	d, _ := row.ParseDate("2012-06-01")
	return d
}

func genSessions(seed int64, n, nCustomers int) []row.Row {
	rng := newRNG(seed, saltSessions)
	base := sessionBaseDay()
	perCountry := n / len(sessionCountries)
	out := make([]row.Row, 0, perCountry*len(sessionCountries))
	for _, country := range sessionCountries {
		for i := 0; i < perCountry; i++ {
			out = append(out, row.Row{
				int64(rng.Intn(nCustomers)),
				base + int64(i*sessionDays/perCountry),
				country,
				int64(rng.Intn(50)),
				int64(rng.Intn(1000000)),
				int64(len(out)),
				int64(rng.Intn(30000)),
				int64(rng.Intn(8000)),
				int64(500 + rng.Intn(6000)),
				int64(rng.Intn(7200)),
				int64(rng.Intn(3)),
				int64(rng.Intn(20)),
				int64(rng.Intn(1 << 30)),
				cdns[rng.Intn(len(cdns))],
				players[rng.Intn(len(players))],
				oses[rng.Intn(len(oses))],
				devices[rng.Intn(len(devices))],
				fmt.Sprintf("city-%d", rng.Intn(500)),
				fmt.Sprintf("isp-%d", rng.Intn(80)),
				exitStates[rng.Intn(len(exitStates))],
				30 * rng.Float64(),
				rng.Float64(),
				fmt.Sprintf("[tag%d,tag%d]", rng.Intn(40), rng.Intn(40)),
				fmt.Sprintf("{plays:%d,pauses:%d}", rng.Intn(10), rng.Intn(10)),
			})
		}
	}
	return out
}

func genPoints(seed int64, n, dim int) []row.Row {
	rng := newRNG(seed, saltPoints)
	trueW := make([]float64, dim)
	for i := range trueW {
		trueW[i] = rng.NormFloat64()
	}
	out := make([]row.Row, n)
	for i := range out {
		r := make(row.Row, dim+1)
		var dot float64
		for j := 0; j < dim; j++ {
			x := rng.NormFloat64()
			r[j+1] = x
			dot += x * trueW[j]
		}
		r[0] = 1.0
		if dot < 0 {
			r[0] = -1.0
		}
		out[i] = r
	}
	return out
}

// selThreshold draws the `sel` pageRank cut so that about 1 % of
// rankings qualify (0.9 × (10000-t)/10000).
func selThreshold(seed int64) int64 {
	return 9885 + int64(newRNG(seed, saltParams).Intn(11))
}

// dashParams is every (country, day) pair in a seeded order: the
// serve_point dashboard statements cycle through all of them, so each
// run asks the same mix of one- and two-partition questions whatever
// the seed.
func dashParams(seed int64) []row.Row {
	rng := newRNG(seed, saltParams+1)
	out := make([]row.Row, 0, len(sessionCountries)*sessionDays)
	for _, i := range rng.Perm(cap(out)) {
		out = append(out, row.Row{sessionCountries[i/sessionDays], sessionBaseDay() + int64(i%sessionDays)})
	}
	return out
}

// fetchParams is a seeded permutation of the countries for
// serve_fetch; every country holds the same number of rows.
func fetchParams(seed int64) []row.Row {
	rng := newRNG(seed, saltParams+2)
	out := make([]row.Row, len(sessionCountries))
	for i, j := range rng.Perm(len(sessionCountries)) {
		out[i] = row.Row{sessionCountries[j]}
	}
	return out
}
