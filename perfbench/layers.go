package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"deep/internal/fleetd"
	"deep/internal/obs"
	"deep/internal/wire"
)

// runTraced is the per-layer run. An untraced server measures reference
// capacity in closed-loop blocks for a quarter of the time; a traced server
// then alternates closed- and open-loop blocks for the rest, recording
// spans at the client, the handler middleware and the Backend wrapper.
func runTraced(in *inputs, o options, total time.Duration, rep *report) error {
	ref, err := startSession(in, nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	cycles, closedB, openB := blocks(total*3/4, 1.0/3)
	refM, err := measure(ref, 0, max(1, int(total/4/closedB)), closedB, 0)
	ref.close()
	if err != nil {
		return err
	}

	tr := newTracer()
	s, err := startSession(in, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	m, err := measure(s, 1, cycles, closedB, openB)
	if err != nil {
		return err
	}
	calls := tr.joinCalls(append(m.closed.spans, m.open.spans...))

	res := rep.res
	res.Attempted = refM.sum.deploys + m.sum.deploys
	res.Failed = refM.sum.failed + m.sum.failed
	res.Correct = res.Failed == 0
	for _, first := range []string{refM.sum.firstErr, m.sum.firstErr} {
		if first != "" {
			rep.note("first failure: %s", first)
			break
		}
	}
	if err := layerMetrics(rep, in, tr, calls, m, refM); err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", in.w.name, in.seed))
	if err := writeSpans(path, calls); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	rep.note("spans of %d calls written to %s", len(calls), path)
	return nil
}

// samples collects one per-layer distribution in microseconds.
type samples []float64

func (s *samples) addNS(ns int64) { *s = append(*s, float64(ns)/1e3) }

func (s samples) q(q float64) float64 { return quantile(sortedCopy(s), q) }

func (s samples) max() float64 { return quantile(sortedCopy(s), 1) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics derives the per-layer metrics from the joined spans, the
// fleet's Stats() deltas, and direct timed calls into wire.
func layerMetrics(rep *report, in *inputs, tr *tracer, calls []callTrace, m, ref *measured) error {
	var (
		net, handler, fleetdSelf, fleetSpan, fleetSelf, admit samples
		stage                                                 [obs.NumStages]samples
		schedMiss                                             samples
		reqBytes, respBytes, refused, handled                 int64
		fleetShare, solveShare                                []float64
		busy, selfErrMax                                      int64
	)
	firstAt := map[int64]int64{} // epoch → earliest fleet-span end at that epoch
	firstDur := map[int64]int64{}
	for i := range calls {
		c := &calls[i]
		if c.handler == nil {
			continue
		}
		spans := c.spanTree()
		self := selfTimes(spans)
		var sum int64
		for _, v := range self {
			sum += v
		}
		clientDur := c.end - c.send
		selfErrMax = max(selfErrMax, abs(sum-clientDur))

		net.addNS(self[layerClient])
		handler.addNS(c.handler.end - c.handler.start)
		fleetdSelf.addNS(self[layerFleetd])
		handled++
		reqBytes += c.handler.reqBytes
		respBytes += c.handler.respBytes
		if c.handler.status != 200 {
			refused++
		}
		f := c.fleet
		if f == nil {
			continue
		}
		fleetSpan.addNS(f.end - f.start)
		admit.addNS(f.admitted - f.start)
		fleetSelf.addNS(self[layerFleet])
		var solve int64
		for _, it := range f.items {
			for s := obs.Stage(0); s < obs.NumStages; s++ {
				stage[s].addNS(int64(it.stages[s]))
				if s != obs.StageQueue {
					busy += int64(it.stages[s])
				}
			}
			solve += int64(it.stages[obs.StageCompile] + it.stages[obs.StageSchedule])
			if !it.cacheHit && !it.failed {
				schedMiss.addNS(int64(it.stages[obs.StageSchedule]))
			}
			if it.epoch > 0 && (firstAt[it.epoch] == 0 || f.end < firstAt[it.epoch]) {
				firstAt[it.epoch] = f.end
				firstDur[it.epoch] = f.end - f.start
			}
		}
		if !f.refused {
			fleetShare = append(fleetShare, ratio(f.end-f.start, clientDur))
			solveShare = append(solveShare, ratio(solve, f.end-f.start))
		}
	}
	if selfErrMax > 1000 {
		rep.res.Correct = false
		rep.note("self times miss the client span by up to %d ns: the spans do not nest", selfErrMax)
	}

	late, connWait := sortedCopy(m.open.late), sortedCopy(m.open.connWait)
	rep.metric("client.lat_p50_ms", quantile(sortedCopy(m.open.lat), 0.5), "ms",
		fmt.Sprintf("open loop, traced, from each call's due time, n=%d", len(m.open.lat)))
	rep.metric("client.lat_p99_ms", windowedQuantile(m.open.lat, 0.99, latWindow), "ms",
		fmt.Sprintf("open loop, traced; median over %d-call windows of their p99", latWindow))
	rep.metric("client.gen_late_p99_ms", quantile(late, 0.99), "ms", fmt.Sprintf("generator wake-up behind schedule, n=%d", len(late)))
	rep.metric("client.conn_wait_p99_ms", quantile(connWait, 0.99), "ms", "open-loop wait for a free connection")
	rep.metric("net.residual_us_p50", net.q(0.5), "us", "client span minus handler span")
	rep.metric("fleetd.handler_us_p50", handler.q(0.5), "us", fmt.Sprintf("n=%d calls", len(handler)))
	rep.metric("fleetd.handler_us_p99", handler.q(0.99), "us", "")
	rep.metric("fleetd.self_us_p50", fleetdSelf.q(0.5), "us", "handler span minus fleet span")
	rep.metric("fleetd.req_bytes_mean", float64(reqBytes)/float64(max(handled, 1)), "bytes", "")
	rep.metric("fleetd.resp_bytes_mean", float64(respBytes)/float64(max(handled, 1)), "bytes", "")
	rep.metric("fleetd.refused_frac", ratio(refused, handled), "frac", fmt.Sprintf("%d non-200 of %d calls", refused, handled))
	rep.metric("fleetd.refused", float64(refused), "count", "")
	rep.metric("fleetd.calls", float64(handled), "count", "")

	env, dec, build, err := wireTimings(in)
	if err != nil {
		return err
	}
	rep.metric("wire.envelope_us_p50", env.q(0.5), "us", fmt.Sprintf("json.Unmarshal of the envelope, n=%d", len(env)))
	rep.metric("wire.decode_us_p50", dec.q(0.5), "us", fmt.Sprintf("wire.DecodeAppSpec, n=%d", len(dec)))
	rep.metric("wire.build_us_p50", build.q(0.5), "us", "(*wire.AppSpec).App")

	st0, st1 := m.st0, m.st1
	rep.metric("fleet.admit_us_p50", admit.q(0.5), "us", "TrySubmitCtx/SubmitBatch call")
	rep.metric("fleet.queue_us_p50", stage[obs.StageQueue].q(0.5), "us", fmt.Sprintf("n=%d responses", len(stage[obs.StageQueue])))
	rep.metric("fleet.queue_us_p99", stage[obs.StageQueue].q(0.99), "us", "")
	rep.metric("fleet.queue_full", float64(st1.Rejected-st0.Rejected), "count", "admissions refused")
	rep.metric("fleet.span_us_p50", fleetSpan.q(0.5), "us", "Backend call until its last response")
	rep.metric("fleet.span_us_p99", fleetSpan.q(0.99), "us", "")
	rep.metric("fleet.self_us_p50", fleetSelf.q(0.5), "us", "fleet span minus admission and stages")
	rep.metric("fleet.fingerprint_us_p50", stage[obs.StageFingerprint].q(0.5), "us", "")
	rep.metric("fleet.cache_lookup_us_p50", stage[obs.StageCacheLookup].q(0.5), "us", "")
	wall := m.closed.wall + m.open.wall
	workers := int64(m.workers)
	rep.metric("fleet.busy_frac", ratio(busy, int64(wall)*workers), "frac",
		fmt.Sprintf("non-queue stage time over %.2fs x %d workers", wall.Seconds(), workers))
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	rep.metric("fleet.placement_hit_ratio", ratio(hits, hits+misses), "frac", fmt.Sprintf("%d of %d lookups", hits, hits+misses))
	rep.metric("fleet.placement_hits", float64(hits), "count", "")
	rep.metric("fleet.placement_lookups", float64(hits+misses), "count", "")
	shits, smiss := st1.ModelCache.Hits-st0.ModelCache.Hits, st1.ModelCache.Misses-st0.ModelCache.Misses
	rep.metric("fleet.shape_hit_ratio", ratio(shits, shits+smiss), "frac", fmt.Sprintf("%d of %d lookups", shits, shits+smiss))
	rep.metric("fleet.shape_hits", float64(shits), "count", "")
	rep.metric("fleet.shape_lookups", float64(shits+smiss), "count", "")

	rep.metric("costmodel.compile_us_p50", stage[obs.StageCompile].q(0.5), "us", "compile stage")
	rep.metric("costmodel.compile_us_p99", stage[obs.StageCompile].q(0.99), "us", "")
	rep.metric("fleet.shape_compiles", float64(st1.ModelCache.Compiles-st0.ModelCache.Compiles), "count", "")
	rep.metric("fleet.app_table_compiles", float64(st1.ModelCache.AppCompiles-st0.ModelCache.AppCompiles), "count", "")
	rep.metric("fleet.cluster_table_compiles", float64(st1.ModelCache.ClusterCompiles-st0.ModelCache.ClusterCompiles), "count", "")
	rep.metric("sched.schedule_us_p50", schedMiss.q(0.5), "us", "schedule stage of placement misses")
	rep.metric("sched.schedule_us_p99", schedMiss.q(0.99), "us", "")
	rep.metric("sched.solves", float64(misses), "count", "placement-cache misses")
	rep.metric("sim.exec_us_p50", stage[obs.StageSim].q(0.5), "us", "")

	var apply samples
	tr.mu.Lock()
	for _, d := range tr.churns {
		apply.addNS(int64(d))
	}
	tr.mu.Unlock()
	var firstPost samples
	for _, d := range firstDur {
		firstPost.addNS(d)
	}
	ch0, ch1 := st0.Churn, st1.Churn
	rep.metric("churn.apply_us_p50", apply.q(0.5), "us", fmt.Sprintf("ApplyChurn, n=%d", len(apply)))
	rep.metric("churn.apply_us_max", apply.max(), "us", "")
	rep.metric("churn.epochs", float64(ch1.EpochsApplied-ch0.EpochsApplied), "count", "")
	rep.metric("churn.invalidated", float64(ch1.Invalidated-ch0.Invalidated), "count", "")
	rep.metric("churn.stale_rejected", float64(ch1.StaleRejected-ch0.StaleRejected), "count", "")
	rep.metric("churn.reschedules", float64(ch1.Reschedules-ch0.Reschedules), "count", "")
	rep.metric("churn.downgrades", float64(ch1.Downgrades-ch0.Downgrades), "count", "")
	rep.metric("churn.first_post_us_max", firstPost.max(), "us", fmt.Sprintf("fleet span of the first response at each of %d epochs", len(firstPost)))

	traced, untraced := median(m.closed.rates), median(ref.closed.rates)
	rep.metric("trace.capacity_rps", traced, "1/s", "closed loop, traced")
	rep.metric("trace.capacity_rps_untraced", untraced, "1/s", "closed loop, untraced server, same run")
	rep.metric("trace.overhead_frac", 1-traced/untraced, "frac", "capacity lost to tracing")
	rep.metric("trace.selfsum_err_max_us", float64(selfErrMax)/1e3, "us", "largest |sum of self times - client span|")
	rep.metric("trace.calls", float64(len(calls)), "count", "")

	epochs, invalidated := ch1.EpochsApplied-ch0.EpochsApplied, ch1.Invalidated-ch0.Invalidated
	switch in.w.name {
	case "warm-casestudy":
		v := median(fleetShare)
		rep.note("prediction: fleet span under a tenth of the client span: median share %.4f, %s", v, holds(v < 0.1))
	case "cold-synthetic":
		v := median(solveShare)
		rep.note("prediction: compile plus schedule over half the fleet span: median share %.4f, %s", v, holds(v > 0.5))
	case "churn-synthetic":
		rep.note("prediction: churn.epochs %d > 0 and churn.invalidated %d > 0: %s", epochs, invalidated, holds(epochs > 0 && invalidated > 0))
	}
	return nil
}

func holds(ok bool) string {
	if ok {
		return "holds"
	}
	return "does not hold"
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// wireSamples is how many deployments wireTimings decodes.
const wireSamples = 2000

// wireTimings times the front door's decode steps directly on the run's own
// bodies: the envelope json.Unmarshal, wire.DecodeAppSpec of each app, and
// (*wire.AppSpec).App.
func wireTimings(in *inputs) (env, dec, build samples, err error) {
	for i := 0; len(dec) < wireSamples; i++ {
		body := in.pool[i%len(in.pool)].body
		var raws []json.RawMessage
		start := time.Now()
		if in.w.batch {
			var req fleetd.DeployBatchRequest
			err = json.Unmarshal(body, &req)
			for _, it := range req.Items {
				raws = append(raws, it.App)
			}
		} else {
			var req fleetd.DeployRequest
			err = json.Unmarshal(body, &req)
			raws = append(raws, req.App)
		}
		env.addNS(int64(time.Since(start)))
		if err != nil {
			return nil, nil, nil, err
		}
		for _, raw := range raws {
			start = time.Now()
			spec, err := wire.DecodeAppSpec(raw)
			mid := time.Now()
			if err != nil {
				return nil, nil, nil, err
			}
			if _, err := spec.App(); err != nil {
				return nil, nil, nil, err
			}
			dec.addNS(int64(mid.Sub(start)))
			build.addNS(int64(time.Since(mid)))
		}
	}
	return env, dec, build, nil
}
