// Command perfbench is the repository's socket-to-socket serving benchmark.
// It builds the deployment server in-process the way cmd/deepfleetd does
// with its default flags, serves it on loopback sockets (a public and an
// admin listener), and loads it from the same process over one HTTP
// connection per CPU:
//
//	go run . --workload warm-casestudy --seed 1 --seconds 10 --trace 0
//
// A run sets the server up several times (setup_s is the median), then
// alternates closed-loop blocks, which measure capacity, with open-loop
// blocks at the workload's fixed rate, which measure latency; it checks
// every response and prints a human-readable report followed by one JSON
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
// same workload runs with spans recorded at each layer boundary and the JSON
// carries the per-layer metrics instead; the spans are written to
// $CARGO_TARGET_DIR/traces/ (default .bench_build). The workloads and
// metrics are listed in ../BENCHMARK.json; recorded.json holds each
// workload's parameters and predictions and the figures recorded for them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deep/internal/fleet"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// tiny shrinks the request pools, for the package's own tests.
	tiny bool
	// traceDir receives the traced run's span file.
	traceDir string
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.setups = 21
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	o.traceDir = filepath.Join(dir, "traces")

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report collects the human-readable lines printed before the JSON.
type report struct {
	w   io.Writer
	res *result
}

func (r *report) metric(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.line(name, v, unit, note)
}

func (r *report) line(name string, v float64, unit, note string) {
	fmt.Fprintf(r.w, "  %-30s %14.4f %-6s %s\n", name, v, unit, note)
}

func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.w, "  "+format+"\n", args...)
}

// run executes one benchmark run and returns its result line.
func run(o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if !(o.seconds > 0) {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	in, err := buildInputs(w, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v conns=%d GOMAXPROCS=%d %s\n",
		w.name, o.seed, o.seconds, o.trace, conns(), runtime.GOMAXPROCS(0), runtime.Version())
	res := &result{Correct: true, Metrics: map[string]metric{}}
	rep := &report{w: out, res: res}
	total := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		err = runTraced(in, o, total, rep)
	} else {
		err = runEndToEnd(in, o, total, rep)
	}
	return res, err
}

// measured is what one session's load phases produced.
type measured struct {
	closed, open phase
	sum          tally // both phases, post-run check failures included
	st0, st1     fleet.Stats
	postChecked  int
	workers      int
}

// cycleLen is the length of one closed-loop block plus one open-loop block.
// Alternating short blocks spreads both phases over the whole run, so a
// stretch of slow host time lands on both, and the many blocks let the
// per-block quantiles below read the program past it.
const cycleLen = 500 * time.Millisecond

// fastQ is the quantile of the closed-loop blocks' CPU and capacity
// figures that a run reports, counted from the fast end: host interference
// (CPU steal, a neighbour thrashing the shared cache) only ever slows a
// block, comes in bursts that can cover half a run, and moves the median
// with it, while the fastest quarter of the blocks still reads the program.
const fastQ = 0.25

// blocks splits d into cycles of a closed-loop block (share closedShare)
// and an open-loop block.
func blocks(d time.Duration, closedShare float64) (cycles int, closedB, openB time.Duration) {
	cycles = max(1, int(math.Round(float64(d)/float64(cycleLen))))
	per := d / time.Duration(cycles)
	closedB = time.Duration(float64(per) * closedShare)
	return cycles, closedB, per - closedB
}

// measure runs cycles of a closed-loop block of closedB then an open-loop
// block of openB on s (either may be zero), replaying churn alongside on
// the churn workload, then runs the post-run output checks.
func measure(s *session, sessionIdx, cycles int, closedB, openB time.Duration) (*measured, error) {
	in := s.in
	m := &measured{workers: s.fleet.Workers()}
	l := &loader{s: s}
	stop := make(chan struct{})
	var states map[int64]epochState
	var replayErr error
	replayed := make(chan struct{})
	if in.w.churn {
		r, err := newChurnReplay(s, sessionIdx, time.Duration(cycles)*(closedB+openB))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		go func() {
			defer close(replayed)
			states, replayErr = r.run(stop, s, start)
		}()
	} else {
		close(replayed)
	}
	rng := rand.New(rand.NewSource(in.seed*7919 + int64(sessionIdx)))
	m.st0 = s.fleet.Stats()
	for c := 0; c < cycles; c++ {
		if closedB > 0 {
			m.closed.merge(l.closedLoop(closedB))
		}
		if openB > 0 {
			m.open.merge(l.openLoop(openB, rng))
		}
	}
	m.st1 = s.fleet.Stats()
	close(stop)
	<-replayed
	if replayErr != nil {
		return nil, fmt.Errorf("churn replay: %w", replayErr)
	}
	m.sum.add(&m.closed.tally)
	m.sum.add(&m.open.tally)
	failed, firstErr := s.check.postRun(states)
	m.sum.served -= failed
	m.sum.failed += failed
	if m.sum.firstErr == "" {
		m.sum.firstErr = firstErr
	}
	m.postChecked = s.check.postCount()
	return m, nil
}

// runEndToEnd is the untraced run: set-up several times, then alternating
// closed-loop (60% of the time) and open-loop (40%) blocks.
func runEndToEnd(in *inputs, o options, total time.Duration, rep *report) error {
	var setups []float64
	var s *session
	for k := 0; k < o.setups; k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = startSession(in, nil); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()
	cycles, closedB, openB := blocks(total, 0.6)
	m, err := measure(s, 0, cycles, closedB, openB)
	if err != nil {
		return err
	}
	rss := float64(readUsage().maxRSSB) / (1 << 20)

	res := rep.res
	res.Attempted, res.Failed = m.sum.deploys, m.sum.failed
	res.Correct = m.sum.failed == 0
	c, op := &m.closed, &m.open
	lat := sortedCopy(op.lat)
	rep.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	// Capacity and latency are wall-clock figures and are reported, not
	// gated: CPU steal on a contended host cut capacity by a fifth and
	// doubled the open-loop p50 (each call there waits on idle vCPUs to
	// wake) from one set of runs to the next. cpu_us_per_req is the gated
	// speed figure.
	rep.line("capacity_rps", quantile(sortedCopy(c.rates), 1-fastQ), "1/s",
		fmt.Sprintf("closed loop, %d conns, upper quartile of %d blocks; %d deployments in %.2fs (reported, not gated)", conns(), len(c.rates), c.served, c.wall.Seconds()))
	rep.line("lat_p50_ms", quantile(lat, 0.5), "ms",
		fmt.Sprintf("open loop at %g calls/s, whole phase, n=%d (reported, not gated)", in.openRate, len(lat)))
	rep.line("lat_p99_ms", windowedQuantile(op.lat, 0.99, latWindow), "ms",
		fmt.Sprintf("median over %d-call windows of their p99 (reported, not gated)", latWindow))
	if q, v, ok := tailQuantile(lat); ok {
		rep.note("%-30s %14.4f %-6s whole phase, %d beyond", fmt.Sprintf("lat_p%g_ms", q*100), v, "ms", len(lat)-int(math.Ceil(q*float64(len(lat)))))
	}
	rep.metric("cpu_us_per_req", quantile(sortedCopy(c.cpuPer), fastQ), "us",
		"process user+sys CPU per deployment in the closed loop, lower quartile of blocks")
	rep.line("cpu_us_per_req_median", median(c.cpuPer), "us", "median of the blocks (reported, not gated)")
	rep.metric("alloc_kib_per_req", median(c.allocPer), "KiB",
		"process heap allocation per deployment in the closed loop, median of blocks")
	rep.metric("rss_peak_mb", rss, "MB", "peak resident set of the process")
	rep.metric("energy_j_mean", m.sum.energyJ/float64(max(m.sum.served, 1)), "J", "mean total_energy_j of served placements")
	rep.metric("completion_s_mean", m.sum.makespan/float64(max(m.sum.served, 1)), "s", "mean makespan_s of served placements")
	rep.metric("ok_frac", float64(m.sum.served)/float64(max(m.sum.deploys, 1)), "frac", "= 1 - fail_frac")
	rep.metric("exact_frac", float64(m.sum.served-m.sum.degraded)/float64(max(m.sum.served, 1)), "frac", "= 1 - degraded_frac")
	rep.line("fail_frac", float64(m.sum.failed)/float64(max(m.sum.deploys, 1)), "frac",
		fmt.Sprintf("%d of %d deployments", m.sum.failed, m.sum.deploys))
	rep.line("degraded_frac", float64(m.sum.degraded)/float64(max(m.sum.served, 1)), "frac",
		fmt.Sprintf("%d of %d served", m.sum.degraded, m.sum.served))
	rep.note("set-ups (s): %s", fmtList(setups))
	rep.note("closed-loop blocks (1/s): %s", fmtList(c.rates))
	rep.note("closed-loop blocks (us CPU/deployment): %s", fmtList(c.cpuPer))
	rep.note("open-loop block p50s (ms): %s", fmtList(op.p50s))
	if m.postChecked > 0 {
		rep.note("post-run checks covered %d placements", m.postChecked)
	}
	if m.sum.firstErr != "" {
		rep.note("first failure: %s", m.sum.firstErr)
	}
	return nil
}

// latWindow is the call count of one p99 window: at least 1000, so each
// window's p99 has ten calls beyond it.
const latWindow = 2000

func fmtList(xs []float64) string {
	var b []byte
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "%.4g", x)
	}
	return string(b)
}
