package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"deep/internal/fleet"
	"deep/internal/obs"
)

// idHeader carries the benchmark's request id from the client span to the
// handler span; the middleware moves it into the request context, which the
// handler's ctx carries into TrySubmitCtx/SubmitBatch.
const idHeader = "X-Perfbench-Id"

type idKey struct{}

// tracer records spans at each layer boundary, from outside the program:
// the client around each HTTP call, a middleware around Server.Handler(),
// and a fleetd.Backend wrapper around *fleet.Fleet. Spans stay in memory
// until the run ends. Times are nanoseconds since the tracer's epoch.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	handlers []handlerSpan
	fleets   []fleetSpan
	churns   []time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// clientSpan converts one call's client-side times; due is zero for a
// closed-loop call.
func (t *tracer) clientSpan(id int64, due, send, end time.Time) clientSpan {
	c := clientSpan{id: id, open: !due.IsZero(), send: int64(send.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	if c.open {
		c.due = int64(due.Sub(t.epoch))
	}
	return c
}

// handlerSpan is one ServeHTTP call of the public handler.
type handlerSpan struct {
	id                  int64
	start, end          int64
	status              int
	reqBytes, respBytes int64
}

// fleetSpan is one TrySubmitCtx or SubmitBatch call, from the call until
// the last response came back. items holds each response's stage trace.
type fleetSpan struct {
	id                   int64
	start, admitted, end int64
	refused              bool
	items                []itemTrace
}

// itemTrace is what one fleet.Response says about itself.
type itemTrace struct {
	stages   [obs.NumStages]time.Duration
	cacheHit bool
	failed   bool
	epoch    int64
}

func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(idHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r) // probes and set-up calls carry no id
			return
		}
		start := t.now()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), idKey{}, id)))
		end := t.now()
		t.mu.Lock()
		t.handlers = append(t.handlers, handlerSpan{id: id, start: start, end: end, status: cw.status, reqBytes: r.ContentLength, respBytes: cw.n})
		t.mu.Unlock()
	})
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (c *countingWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// tracedBackend times the fleet from the handler's side of the Backend
// seam. It waits for the responses itself and hands the handler a channel
// that already holds them: the handler would block on the same receive
// right after admission, so the fleet span ends where the handler's wait
// would have, with no extra goroutine on the path.
type tracedBackend struct {
	*fleet.Fleet
	t *tracer
}

func (b *tracedBackend) TrySubmitCtx(ctx context.Context, req fleet.Request) (<-chan *fleet.Response, error) {
	start := b.t.now()
	ch, err := b.Fleet.TrySubmitCtx(ctx, req)
	return b.collect(ctx, start, ch, 1, err)
}

func (b *tracedBackend) SubmitBatch(ctx context.Context, reqs []fleet.Request) (<-chan *fleet.Response, error) {
	start := b.t.now()
	ch, err := b.Fleet.SubmitBatch(ctx, reqs)
	return b.collect(ctx, start, ch, len(reqs), err)
}

func (b *tracedBackend) collect(ctx context.Context, start int64, ch <-chan *fleet.Response, n int, err error) (<-chan *fleet.Response, error) {
	sp := fleetSpan{start: start, admitted: b.t.now()}
	sp.id, _ = ctx.Value(idKey{}).(int64)
	var out chan *fleet.Response
	if err != nil {
		sp.refused = true
		sp.end = sp.admitted
	} else {
		// The fleet answers every accepted request, so these receives end.
		out = make(chan *fleet.Response, n)
		sp.items = make([]itemTrace, n)
		for i := 0; i < n; i++ {
			resp := <-ch
			sp.items[i] = itemTrace{stages: resp.Stages.D, cacheHit: resp.CacheHit, failed: resp.Err != nil, epoch: resp.Epoch}
			out <- resp
		}
		sp.end = b.t.now()
	}
	if sp.id != 0 { // set-up calls carry no id
		b.t.mu.Lock()
		b.t.fleets = append(b.t.fleets, sp)
		b.t.mu.Unlock()
	}
	return out, err
}

func (b *tracedBackend) ApplyChurn(delta fleet.ChurnDelta) (int64, int, error) {
	start := time.Now()
	epoch, invalidated, err := b.Fleet.ApplyChurn(delta)
	d := time.Since(start)
	b.t.mu.Lock()
	b.t.churns = append(b.t.churns, d)
	b.t.mu.Unlock()
	return epoch, invalidated, err
}

// span is one interval of a request's span tree; parent indexes the span
// slice (-1 for the root).
type span struct {
	name       string
	start, end int64
	parent     int
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children clipped to the parent, overlaps
// counted once).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for p := range spans {
		var kids [][2]int64
		for c := range spans {
			if spans[c].parent != p {
				continue
			}
			lo, hi := max(spans[c].start, spans[p].start), min(spans[c].end, spans[p].end)
			if hi > lo {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
		var covered, reach int64
		reach = spans[p].start
		for _, k := range kids {
			if k[0] > reach {
				reach = k[0]
			}
			if k[1] > reach {
				covered += k[1] - reach
				reach = k[1]
			}
		}
		self[p] = spans[p].end - spans[p].start - covered
	}
	return self
}

// layerNames are the spans of one traced call, in order. The client span's
// self time is what net/http and the socket add around the handler.
var layerNames = [...]string{"client", "fleetd", "fleet", "admit",
	"queue", "fingerprint", "compile", "cache_lookup", "schedule", "sim_exec"}

const (
	layerClient = iota
	layerFleetd
	layerFleet
	layerAdmit
	layerStages // first of obs.NumStages stage layers
)

// callTrace is one traced HTTP call with its spans joined by id.
type callTrace struct {
	clientSpan
	handler *handlerSpan
	fleet   *fleetSpan
}

// spanTree lays one call out as a span tree: client ⊃ handler ⊃ fleet ⊃
// {admission call, fleet stages}. The stages come from Response.Stages and
// run back to back, ending when the last response reached the wrapper: the
// fleet stamps them on one worker in that order, the queue stage beginning
// at enqueue, so they cannot start before the wrapper's call did. For a
// batch, the chain is the first item's queue wait followed by every item's
// work stages. The admission call's tail can overlap the chain when a worker
// picks the job up before the call returns; the chain is the response's
// critical path, so the admission span stops where the chain begins.
func (c *callTrace) spanTree() []span {
	spans := []span{{name: layerNames[layerClient], start: c.send, end: c.end, parent: -1}}
	if c.handler == nil {
		return spans
	}
	spans = append(spans, span{name: layerNames[layerFleetd], start: c.handler.start, end: c.handler.end, parent: layerClient})
	f := c.fleet
	if f == nil {
		return spans
	}
	spans = append(spans, span{name: layerNames[layerFleet], start: f.start, end: f.end, parent: layerFleetd})
	var chain [obs.NumStages]int64
	for i, it := range f.items {
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			if s == obs.StageQueue && i > 0 {
				continue
			}
			chain[s] += int64(it.stages[s])
		}
	}
	var total int64
	for _, d := range chain {
		total += d
	}
	at := f.end - total
	spans = append(spans, span{name: layerNames[layerAdmit], start: f.start, end: min(f.admitted, max(at, f.start)), parent: layerFleet})
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		spans = append(spans, span{name: layerNames[layerStages+int(s)], start: at, end: at + chain[s], parent: layerFleet})
		at += chain[s]
	}
	return spans
}

// joinCalls ties client, handler and fleet spans together by request id.
func (t *tracer) joinCalls(client []clientSpan) []callTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	hs := make(map[int64]*handlerSpan, len(t.handlers))
	for i := range t.handlers {
		hs[t.handlers[i].id] = &t.handlers[i]
	}
	fs := make(map[int64]*fleetSpan, len(t.fleets))
	for i := range t.fleets {
		fs[t.fleets[i].id] = &t.fleets[i]
	}
	out := make([]callTrace, len(client))
	for i, c := range client {
		out[i] = callTrace{clientSpan: c, handler: hs[c.id], fleet: fs[c.id]}
	}
	return out
}

// writeSpans writes one JSON line per traced call: its spans and self
// times, in microseconds since the tracer's epoch.
func writeSpans(path string, calls []callTrace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type outSpan struct {
		Name    string  `json:"name"`
		Parent  int     `json:"parent"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		SelfUS  float64 `json:"self_us"`
	}
	for i := range calls {
		c := &calls[i]
		spans := c.spanTree()
		self := selfTimes(spans)
		line := struct {
			ID    int64     `json:"id"`
			Open  bool      `json:"open_loop"`
			DueUS float64   `json:"due_us,omitempty"`
			Spans []outSpan `json:"spans"`
		}{ID: c.id, Open: c.open}
		if c.open {
			line.DueUS = us(c.due)
		}
		for j, s := range spans {
			line.Spans = append(line.Spans, outSpan{s.name, s.parent, us(s.start), us(s.end), us(self[j])})
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
