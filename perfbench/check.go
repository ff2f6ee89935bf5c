package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"deep/internal/fleetd"
	"deep/internal/sched"
	"deep/internal/wire"
)

// tally accumulates one load goroutine's outcomes; goroutines keep their
// own and merge when a phase ends.
type tally struct {
	calls    int64
	deploys  int64 // attempted
	served   int64 // answered 200 and passed every output check
	failed   int64 // non-200, transport error, or failed output check
	degraded int64
	energyJ  float64
	makespan float64
	firstErr string
}

func (t *tally) fail(n int, err error) {
	t.failed += int64(n)
	if t.firstErr == "" {
		t.firstErr = err.Error()
	}
}

func (t *tally) add(o *tally) {
	t.calls += o.calls
	t.deploys += o.deploys
	t.served += o.served
	t.failed += o.failed
	t.degraded += o.degraded
	t.energyJ += o.energyJ
	t.makespan += o.makespan
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// checker validates every 200 response: every microservice of the app is
// placed on a device and registry GET /v1/cluster lists, energy and makespan
// are finite and positive, and per-workload checks hold (equality with the
// offline DEEP placement, the churn epoch rule, the sampled re-solve).
type checker struct {
	in       *inputs
	devices  map[string]int
	registry map[string]int

	mu sync.Mutex
	// served records what the post-run checks need: for churn, each
	// placement's epoch and hardware; for cold, the sampled placements.
	served []servedPlacement
}

type servedPlacement struct {
	app     int32
	epoch   int64
	devices uint64 // bit i: cluster device i
	regs    uint64 // bit i: cluster registry i
	place   map[string]fleetd.AssignmentSpec
}

func newChecker(in *inputs, spec *wire.ClusterSpec) (*checker, error) {
	if len(spec.Devices) > 64 || len(spec.Registries) > 64 {
		return nil, fmt.Errorf("cluster too large for the epoch check's bitmasks")
	}
	c := &checker{in: in, devices: map[string]int{}, registry: map[string]int{}}
	for i, d := range spec.Devices {
		c.devices[d.Name] = i
	}
	for i, r := range spec.Registries {
		c.registry[r.Name] = i
	}
	return c, nil
}

// response decodes and checks one 200 body, folding the outcome into t.
func (c *checker) response(r *request, body []byte, t *tally) {
	if c.in.w.batch {
		var out fleetd.DeployBatchResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.fail(len(r.apps), fmt.Errorf("decoding batch response: %w", err))
			return
		}
		if len(out.Results) != len(r.apps) {
			t.fail(len(r.apps), fmt.Errorf("batch of %d answered with %d results", len(r.apps), len(out.Results)))
			return
		}
		for i, res := range out.Results {
			switch {
			case res.Index != i:
				t.fail(1, fmt.Errorf("batch result %d carries index %d", i, res.Index))
			case res.Deploy == nil:
				t.fail(1, fmt.Errorf("batch item %d: %+v", i, res.Error))
			default:
				c.deploy(r.apps[i], res.Deploy, t)
			}
		}
		return
	}
	var out fleetd.DeployResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.fail(1, fmt.Errorf("decoding response: %w", err))
		return
	}
	c.deploy(r.apps[0], &out, t)
}

func (c *checker) deploy(app int32, d *fleetd.DeployResponse, t *tally) {
	if err := c.placement(app, d); err != nil {
		t.fail(1, err)
		return
	}
	t.served++
	if d.Degraded {
		t.degraded++
	}
	t.energyJ += d.EnergyJ
	t.makespan += d.MakespanS
}

func (c *checker) placement(app int32, d *fleetd.DeployResponse) error {
	ref := &c.in.apps[app]
	if d.App != ref.app.Name {
		return fmt.Errorf("response for app %q, sent %q", d.App, ref.app.Name)
	}
	if !(d.EnergyJ > 0) || math.IsInf(d.EnergyJ, 0) || !(d.MakespanS > 0) || math.IsInf(d.MakespanS, 0) {
		return fmt.Errorf("%s: energy %v J, makespan %v s", d.App, d.EnergyJ, d.MakespanS)
	}
	if len(d.Placement) != len(ref.ms) {
		return fmt.Errorf("%s: %d placements for %d microservices", d.App, len(d.Placement), len(ref.ms))
	}
	var devs, regs uint64
	for _, ms := range ref.ms {
		a, ok := d.Placement[ms]
		if !ok {
			return fmt.Errorf("%s: microservice %s not placed", d.App, ms)
		}
		di, okD := c.devices[a.Device]
		ri, okR := c.registry[a.Registry]
		if !okD || !okR {
			return fmt.Errorf("%s: %s placed on %s/%s outside the cluster", d.App, ms, a.Device, a.Registry)
		}
		devs |= 1 << di
		regs |= 1 << ri
		if ref.expect != nil && ref.expect[ms] != a {
			return fmt.Errorf("%s: %s placed on %+v, offline DEEP says %+v", d.App, ms, a, ref.expect[ms])
		}
	}
	switch {
	case c.in.w.churn:
		c.record(servedPlacement{app: app, epoch: d.Epoch, devices: devs, regs: regs})
	case ref.resolve:
		c.record(servedPlacement{app: app, place: d.Placement})
	}
	return nil
}

func (c *checker) record(p servedPlacement) {
	c.mu.Lock()
	c.served = append(c.served, p)
	c.mu.Unlock()
}

// epochState is the hardware down at one cluster epoch, as bitmasks over
// the cluster's devices and registries.
type epochState struct{ devices, regs uint64 }

// postRun runs the checks that need the whole run: churn placements against
// the hardware down at their epoch, and cold placements against an offline
// DEEP solve. It returns the number of failed deployments and the first
// failure.
func (c *checker) postRun(epochs map[int64]epochState) (failed int64, firstErr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fail := func(err error) {
		failed++
		if firstErr == "" {
			firstErr = err.Error()
		}
	}
	resolved := map[int32]map[string]fleetd.AssignmentSpec{}
	for _, p := range c.served {
		if c.in.w.churn {
			st, ok := epochs[p.epoch]
			switch {
			case !ok:
				fail(fmt.Errorf("placement at epoch %d, which no churn reply announced", p.epoch))
			case p.devices&st.devices != 0 || p.regs&st.regs != 0:
				fail(fmt.Errorf("placement at epoch %d uses hardware down at that epoch", p.epoch))
			}
			continue
		}
		want, ok := resolved[p.app]
		if !ok {
			placement, err := sched.NewDEEP().Schedule(c.in.apps[p.app].app, c.in.cluster())
			if err != nil {
				fail(err)
				continue
			}
			want = map[string]fleetd.AssignmentSpec{}
			for ms, a := range placement {
				want[ms] = fleetd.AssignmentSpec{Device: a.Device, Registry: a.Registry}
			}
			resolved[p.app] = want
		}
		for ms, a := range p.place {
			if want[ms] != a {
				fail(fmt.Errorf("%s: %s served on %+v, offline re-solve says %+v", c.in.apps[p.app].app.Name, ms, a, want[ms]))
				break
			}
		}
	}
	return failed, firstErr
}

// postCount is the number of placements the post-run checks covered.
func (c *checker) postCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.served)
}
