package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"deep/internal/fleet"
	"deep/internal/fleetd"
)

// clientSpan is the client's view of one traced call, in tracer time.
type clientSpan struct {
	id             int64
	open           bool
	due, send, end int64
}

// phase is what one load phase measured.
type phase struct {
	tally
	wall time.Duration
	cpu  time.Duration
	// allocB is the bytes the process allocated on the heap.
	allocB uint64
	// lat holds open-loop latencies in ms, from each call's scheduled send
	// time to the last byte of its response, in schedule order; a failed
	// call reads +Inf.
	lat []float64
	// late is how far behind schedule the generator woke for each call, and
	// connWait how long it then waited to hand the call to a free
	// connection, in ms.
	late, connWait []float64
	spans          []clientSpan
	// Per-block figures: each closed-loop block's deployments per second,
	// CPU µs and heap KiB allocated per deployment, each open-loop block's
	// median latency.
	rates, cpuPer, allocPer, p50s []float64
}

// merge folds one block into the phase. Closed-loop blocks carry no
// latencies.
func (p *phase) merge(b *phase) {
	p.tally.add(&b.tally)
	p.wall += b.wall
	p.cpu += b.cpu
	p.allocB += b.allocB
	p.lat = append(p.lat, b.lat...)
	p.late = append(p.late, b.late...)
	p.connWait = append(p.connWait, b.connWait...)
	p.spans = append(p.spans, b.spans...)
	if b.lat == nil {
		p.rates = append(p.rates, float64(b.served)/b.wall.Seconds())
		p.cpuPer = append(p.cpuPer, float64(b.cpu.Microseconds())/float64(max(b.served, 1)))
		p.allocPer = append(p.allocPer, float64(b.allocB)/1024/float64(max(b.served, 1)))
	} else {
		p.p50s = append(p.p50s, quantile(sortedCopy(b.lat), 0.5))
	}
}

// loader drives one session: it cycles the request pool and tags calls with
// ids when tracing.
type loader struct {
	s      *session
	cursor atomic.Int64
	ids    atomic.Int64
}

func (l *loader) next() *request {
	pool := l.s.in.pool
	return &pool[(l.cursor.Add(1)-1)%int64(len(pool))]
}

func (l *loader) id() int64 {
	if l.s.tracer == nil {
		return 0
	}
	return l.ids.Add(1)
}

// conn is one load goroutine's state. The bodies of its 200 responses are
// kept until the block ends and checked then, so decoding them for the
// output checks takes no CPU from the server while it is measured.
type conn struct {
	tally
	spans   []clientSpan
	buf     bytes.Buffer
	arena   []byte
	pending []pendingCheck
}

type pendingCheck struct {
	r        *request
	from, to int
	// lat is the call's open-loop schedule index, -1 in the closed loop.
	lat int
}

// checkPending runs the output checks on the kept bodies; a call that fails
// one reads +Inf in lat.
func (c *conn) checkPending(ch *checker, lat []float64) {
	for _, p := range c.pending {
		before := c.failed
		ch.response(p.r, c.arena[p.from:p.to], &c.tally)
		if c.failed > before && p.lat >= 0 {
			lat[p.lat] = math.Inf(1)
		}
	}
	c.arena, c.pending = c.arena[:0], c.pending[:0]
}

// closedLoop runs conns() connections for d, each sending its next call as
// soon as the previous one is answered.
func (l *loader) closedLoop(d time.Duration) *phase {
	n := conns()
	cs := make([]conn, n)
	u0 := readUsage()
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(stop) {
				id := l.id()
				sent := time.Now()
				done, _ := l.s.call(l.next(), id, c, -1)
				if id > 0 {
					c.spans = append(c.spans, l.s.tracer.clientSpan(id, time.Time{}, sent, done))
				}
			}
		}(&cs[w])
	}
	wg.Wait()
	out := &phase{wall: time.Since(start)}
	u1 := readUsage()
	out.cpu, out.allocB = u1.cpu-u0.cpu, u1.allocB-u0.allocB
	for i := range cs {
		cs[i].checkPending(l.s.check, nil)
		out.tally.add(&cs[i].tally)
		out.spans = append(out.spans, cs[i].spans...)
	}
	return out
}

// arrivals returns seeded Poisson arrival offsets at rate per second over d.
func arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openLoop sends calls on an absolute, seeded Poisson schedule at the
// workload's fixed rate for d. A call is timed from when it was due to the
// last byte of its response, so a stall charges every call it delays.
// conns() connections carry the calls; when all are busy the next call
// waits for one, and that wait is part of its latency. On a program too
// slow for the rate the backlog would grow without bound, so dispatching
// stops d/2 past the block's end and the calls never sent count as failed.
func (l *loader) openLoop(d time.Duration, rng *rand.Rand) *phase {
	offsets := arrivals(rng, l.s.in.openRate, d)
	// Workers fill lat by schedule index and the dispatcher fills late and
	// connWait, so no element has two writers.
	lat := make([]float64, len(offsets))
	late := make([]float64, len(offsets))
	connWait := make([]float64, len(offsets))
	type job struct {
		i   int
		due time.Time
	}
	work := make(chan job)
	n := conns()
	cs := make([]conn, n)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for j := range work {
				id := l.id()
				sent := time.Now()
				done, failed := l.s.call(l.next(), id, c, j.i)
				lat[j.i] = ms(done.Sub(j.due))
				if failed {
					lat[j.i] = math.Inf(1)
				}
				if id > 0 {
					c.spans = append(c.spans, l.s.tracer.clientSpan(id, j.due, sent, done))
				}
			}
		}(&cs[w])
	}
	u0 := readUsage()
	sent := len(offsets)
	var handed time.Time // when the previous call reached a connection
	for i, off := range offsets {
		due := start.Add(off)
		sleepUntil(due)
		woke := time.Now()
		if woke.Sub(start) > d+d/2 {
			sent = i
			break
		}
		// The generator's own lateness is measured from when it could have
		// sent: the due time, or the previous hand-off if that came later.
		ready := due
		if handed.After(ready) {
			ready = handed
		}
		late[i] = ms(woke.Sub(ready))
		work <- job{i: i, due: due}
		handed = time.Now()
		connWait[i] = ms(handed.Sub(woke))
	}
	close(work)
	wg.Wait()
	out := &phase{wall: time.Since(start), lat: lat[:sent], late: late[:sent], connWait: connWait[:sent]}
	u1 := readUsage()
	out.cpu, out.allocB = u1.cpu-u0.cpu, u1.allocB-u0.allocB
	for i := range cs {
		cs[i].checkPending(l.s.check, lat)
		out.tally.add(&cs[i].tally)
		out.spans = append(out.spans, cs[i].spans...)
	}
	if unsent := len(offsets) - sent; unsent > 0 {
		items := len(l.s.in.pool[0].apps)
		out.calls += int64(unsent)
		out.deploys += int64(unsent * items)
		out.fail(unsent*items, fmt.Errorf("%d calls never sent: the open loop fell %s behind", unsent, d/2))
		for k := 0; k < unsent; k++ {
			out.lat = append(out.lat, math.Inf(1))
		}
	}
	return out
}

// sleepUntil sleeps until t. The runtime's timers wake an idle process at
// millisecond granularity, which would swamp sub-millisecond arrival gaps,
// so the last millisecond is slept in nanosleep(2) on the calling thread.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		default:
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// churnReplay is a churn-synthetic session's chaos schedule, pre-encoded as
// POST /v1/churn bodies for the admin listener.
type churnReplay struct {
	bodies [][]byte
	at     []time.Duration
	deltas []fleet.ChurnDelta
}

func newChurnReplay(s *session, session int, horizon time.Duration) (*churnReplay, error) {
	sched, err := churnSchedule(s.in, session, horizon)
	if err != nil {
		return nil, err
	}
	r := &churnReplay{}
	for _, ev := range sched.Events {
		if ev.At >= horizon {
			continue
		}
		delta := fleet.DeltaForEvent(ev)
		req := fleetd.ChurnRequest{
			FailDevices: delta.FailDevices, RecoverDevices: delta.RecoverDevices,
			FailRegistries: delta.FailRegistries, RecoverRegistries: delta.RecoverRegistries,
		}
		for _, lc := range delta.Links {
			req.Links = append(req.Links, fleetd.LinkChangeSpec{A: lc.A, B: lc.B, Factor: lc.Factor})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, b)
		r.at = append(r.at, ev.At)
		r.deltas = append(r.deltas, delta)
	}
	return r, nil
}

// run replays the schedule from start until it ends or stop closes, and
// returns the down-hardware state of each epoch it saw (epoch 0 is the
// pristine cluster).
func (r *churnReplay) run(stop <-chan struct{}, s *session, start time.Time) (map[int64]epochState, error) {
	states := map[int64]epochState{0: {}}
	var cur epochState
	for i, body := range r.bodies {
		select {
		case <-stop:
			return states, nil
		case <-time.After(time.Until(start.Add(r.at[i]))):
		}
		// The post itself is not cancelled: a delta the server applied must
		// have its epoch recorded, or placements at that epoch look unannounced.
		epoch, err := s.postChurn(body)
		if err != nil {
			return states, err
		}
		d := r.deltas[i]
		for _, name := range d.FailDevices {
			cur.devices |= 1 << s.check.devices[name]
		}
		for _, name := range d.RecoverDevices {
			cur.devices &^= 1 << s.check.devices[name]
		}
		for _, name := range d.FailRegistries {
			cur.regs |= 1 << s.check.registry[name]
		}
		for _, name := range d.RecoverRegistries {
			cur.regs &^= 1 << s.check.registry[name]
		}
		states[epoch] = cur
	}
	return states, nil
}
