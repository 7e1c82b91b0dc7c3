package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// phase is what one closed-loop phase observed at the client.
type phase struct {
	opMS    []float64            // one entry per correct round
	firstMS []float64            // call → first row of the round's first statement
	stmtMS  map[string][]float64 // per statement id
	iterMS  []float64            // ml_iter: every logistic-regression iteration, in order
	// Through the driver only: QueryContext's return per statement, and
	// the time and rows of the Next/Scan calls that followed (clients
	// time those only when asked to, see client.timeScan).
	queryMS  []float64
	scanNS   float64
	scanRows int

	attempted, failed int
	firstErr          error

	wall     time.Duration
	cpu      time.Duration
	gcCPU    float64 // seconds
	allocB   uint64
	mallocs  uint64
	gcCycles uint32
}

func (p *phase) ops() int { return p.attempted - p.failed }

// perOp divides a phase total by the correct rounds.
func (p *phase) perOp(total float64) float64 {
	if p.ops() == 0 {
		return 0
	}
	return total / float64(p.ops())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set; one process runs
// one workload, so it is that workload's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runPhase drives every client in a closed loop for d: a client starts
// its next round only when the previous one has returned. A round
// counts as correct only if every statement succeeded and matched the
// digest the oracle check recorded.
func runPhase(e *env, clients []*client, expected map[*stmt][]digest, d time.Duration) *phase {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0, start := gcCPUSeconds(), cpuTime(), time.Now()
	deadline := start.Add(d)

	parts := make([]*phase, len(clients))
	var wg sync.WaitGroup
	for k, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &phase{stmtMS: map[string][]float64{}}
			parts[k] = p
			c.iterTimes = c.iterTimes[:0]
			for op := k; time.Now().Before(deadline); op += len(clients) {
				p.attempted++
				t0 := time.Now()
				var first time.Duration
				var err error
				for i, s := range e.stmts {
					s0 := time.Now()
					x, serr := c.exec(s, op, false)
					if serr == nil {
						serr = checkDigest(s, op, x.d, expected)
					}
					if serr != nil {
						err = serr
						break
					}
					took := time.Since(s0)
					p.stmtMS[s.id] = append(p.stmtMS[s.id], ms(took))
					if x.queried > 0 {
						p.queryMS = append(p.queryMS, ms(x.queried))
						if c.timeScan {
							p.scanNS += float64(x.scanned)
							p.scanRows += x.d.rows
						}
					}
					if i == 0 {
						first = x.first
					}
				}
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.opMS = append(p.opMS, ms(time.Since(t0)))
				p.firstMS = append(p.firstMS, ms(first))
			}
			for _, it := range c.iterTimes {
				p.iterMS = append(p.iterMS, ms(it))
			}
		}()
	}
	wg.Wait()

	out := &phase{stmtMS: map[string][]float64{}, wall: time.Since(start), cpu: cpuTime() - cpu0, gcCPU: gcCPUSeconds() - gc0}
	runtime.ReadMemStats(&ms1)
	out.allocB, out.mallocs, out.gcCycles = ms1.TotalAlloc-ms0.TotalAlloc, ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC
	for _, p := range parts {
		out.opMS = append(out.opMS, p.opMS...)
		out.firstMS = append(out.firstMS, p.firstMS...)
		out.iterMS = append(out.iterMS, p.iterMS...)
		out.queryMS = append(out.queryMS, p.queryMS...)
		out.scanNS += p.scanNS
		out.scanRows += p.scanRows
		for id, v := range p.stmtMS {
			out.stmtMS[id] = append(out.stmtMS[id], v...)
		}
		out.attempted += p.attempted
		out.failed += p.failed
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// checkDigest compares a SELECT's digest with the one recorded when
// the statement was checked against the oracle.
func checkDigest(s *stmt, op int, got digest, expected map[*stmt][]digest) error {
	if s.kind != kindSelect {
		return nil
	}
	want := expected[s]
	if w := want[op%len(want)]; !got.equal(w) {
		return fmt.Errorf("%s: result digest %+v, oracle-checked digest %+v", s.id, got, w)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile of v by linear interpolation; 0 when v is
// empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// prepared is a workload set up, oracle-checked and warmed: the state
// both the timed run and the traced run start from.
type prepared struct {
	e        *env
	clients  []*client
	expected map[*stmt][]digest
	setupS   []float64
}

func (p *prepared) close() {
	for _, c := range p.clients {
		c.close()
	}
	p.e.close()
}

// Set-up repeats until it has run minSetups times and for a tenth of
// the measured phase in total, so a cheap set-up is sampled often
// enough for its median to be steady.
const (
	minSetups = 3
	maxSetups = 12
)

// prepare sets the workload up several times (once when !repeat),
// reporting set-up time as the median, keeps the last, checks every
// statement against the oracle and warms up for 15 % of the measured
// phase.
func prepare(w *workload, seed int64, scale float64, root string, repeat bool, measured time.Duration) (*prepared, error) {
	p := &prepared{}
	warm := measured * 15 / 100
	began := time.Now()
	for rep := 0; rep < maxSetups; rep++ {
		if rep > 0 && (!repeat || rep >= minSetups && time.Since(began) >= measured/10) {
			break
		}
		if p.e != nil {
			p.close()
			p.clients = nil
		}
		start := time.Now()
		e, err := newEnv(w, seed, scale, root, rep)
		if err != nil {
			return nil, err
		}
		p.e = e
		for k := 0; k < w.clients; k++ {
			c, err := newClient(e)
			if err != nil {
				p.close()
				return nil, err
			}
			p.clients = append(p.clients, c)
		}
		p.setupS = append(p.setupS, time.Since(start).Seconds())
	}
	setUp := time.Since(began)
	expected, err := checkWorkload(p.e, p.clients[0])
	if err != nil {
		p.close()
		return nil, fmt.Errorf("%s: oracle check: %w", w.name, err)
	}
	p.expected = expected
	checked := time.Since(began) - setUp
	if ph := runPhase(p.e, p.clients, expected, warm); ph.failed > 0 {
		p.close()
		return nil, fmt.Errorf("%s: warm-up: %d of %d rounds failed: %w", w.name, ph.failed, ph.attempted, ph.firstErr)
	}
	runtime.GC()
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d set-up(s) %.1fs, oracle check %.1fs, warm-up %.1fs\n",
		w.name, seed, len(p.setupS), setUp.Seconds(), checked.Seconds(), warm.Seconds())
	return p, nil
}

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd turns the timed phase into the metrics a user of the system
// would see, every time as the clock read it. failed_frac travels as
// the result line's failed/attempted; the 90th percentile did not
// repeat within its bound on this box and is the traced run's
// client.op_p90_ms.
func endToEnd(p *prepared, ph *phase) map[string]metric {
	return map[string]metric{
		"setup_s":          {median(p.setupS), "s"},
		"op_p50_ms":        {median(ph.opMS), "ms"},
		"first_row_p50_ms": {median(ph.firstMS), "ms"},
		"ops_per_s":        {float64(ph.ops()) / ph.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":    {ph.perOp(ms(ph.cpu)), "ms"},
		"alloc_mb_per_op":  {ph.perOp(float64(ph.allocB) / (1 << 20)), "MB"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}
