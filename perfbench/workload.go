package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"deep/internal/chaos"
	"deep/internal/dag"
	"deep/internal/fleet"
	"deep/internal/fleetd"
	"deep/internal/sched"
	"deep/internal/sim"
	"deep/internal/wire"
	"deep/internal/workload"
)

// spec is one workload: the cluster the server runs on, the endpoint the
// load goes to, the fixed open-loop rate, and how its inputs are generated
// from the seed.
type spec struct {
	name string
	// pairs is the ScaledTestbed size (device pairs) the server runs on.
	pairs int
	// batch sends POST /v1/deploy:batch envelopes instead of single deploys.
	batch bool
	// openRate is the open-loop phase's fixed rate in HTTP calls per
	// second, an eighth to a quarter of the closed-loop capacity measured
	// at seed 1 on a 2-CPU host (see recorded.json). Nearer capacity, the
	// host's own swings in speed pushed utilisation so high that queueing,
	// not the program, decided the latency. It is a constant, not
	// re-derived per run, so a slower program meets the same offered load.
	openRate float64
	// churn replays a seeded chaos schedule on the admin listener.
	churn bool
	build func(in *inputs, rng *rand.Rand, tiny bool) error
}

var workloads = []*spec{
	{name: "warm-casestudy", pairs: 1, openRate: 2000, build: buildWarmCaseStudy},
	{name: "cold-synthetic", pairs: 16, openRate: 175, build: buildColdSynthetic},
	{name: "batch-synthetic", pairs: 1, batch: true, openRate: 100, build: buildBatchSynthetic},
	{name: "churn-synthetic", pairs: 4, churn: true, openRate: 1000, build: buildChurnSynthetic},
}

func workloadByName(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// appRef is one application the load deploys, with what the output checks
// need to know about it.
type appRef struct {
	app *dag.App
	// ms lists the app's microservice names: every one must be placed.
	ms []string
	// expect, when set, is the placement every response must equal.
	expect map[string]fleetd.AssignmentSpec
	// resolve marks an app whose served placements are compared against an
	// offline solve after the run.
	resolve bool
}

// request is one pre-encoded HTTP call.
type request struct {
	body []byte
	// apps indexes inputs.apps, one entry per deployment in the call.
	apps []int32
}

// inputs is everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	w    *spec
	seed int64
	// openRate is the open-loop rate in calls per second: the workload's,
	// or an eighth of it on the tiny pools the package's tests use, so that
	// a race-detector build keeps up with it.
	openRate float64
	apps     []appRef
	// pool is the measured request sequence, cycled in order.
	pool []request
	// warm are the warm-up calls set-up sends before it counts as done.
	warm []request
}

func (in *inputs) path() string {
	if in.w.batch {
		return "/v1/deploy:batch"
	}
	return "/v1/deploy"
}

func (in *inputs) cluster() *sim.Cluster { return workload.ScaledTestbed(in.w.pairs) }

// buildInputs generates a workload's applications and request bodies.
func buildInputs(w *spec, seed int64, tiny bool) (*inputs, error) {
	in := &inputs{w: w, seed: seed, openRate: w.openRate}
	if tiny {
		in.openRate /= 8
	}
	if err := w.build(in, rand.New(rand.NewSource(seed)), tiny); err != nil {
		return nil, fmt.Errorf("%s inputs: %w", w.name, err)
	}
	return in, nil
}

func (in *inputs) addApp(app *dag.App) int32 {
	ref := appRef{app: app}
	for _, m := range app.Microservices {
		ref.ms = append(ref.ms, m.Name)
	}
	in.apps = append(in.apps, ref)
	return int32(len(in.apps) - 1)
}

// specJSON pre-encodes each app's wire spec once; bodies embed it verbatim.
func (in *inputs) specJSON() ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(in.apps))
	for i, a := range in.apps {
		b, err := json.Marshal(wire.AppSpecOf(a.app))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func singleDeploy(raw []json.RawMessage, tenant string, app int32, seed int64) (request, error) {
	b, err := json.Marshal(fleetd.DeployRequest{Tenant: tenant, Seed: seed, App: raw[app]})
	return request{body: b, apps: []int32{app}}, err
}

// expectedPlacement is the DEEP scheduler's answer for the app on a fresh
// copy of the cluster, in the wire form responses carry.
func expectedPlacement(app *dag.App, cluster *sim.Cluster) (map[string]fleetd.AssignmentSpec, error) {
	p, err := sched.NewDEEP().Schedule(app, cluster)
	if err != nil {
		return nil, err
	}
	out := make(map[string]fleetd.AssignmentSpec, len(p))
	for ms, a := range p {
		out[ms] = fleetd.AssignmentSpec{Device: a.Device, Registry: a.Registry}
	}
	return out, nil
}

// buildWarmCaseStudy: the paper's video and text apps on its two-device
// testbed, under four tenants. After warm-up every call hits the placement
// cache, so the front door does nearly all the work. Every response must
// equal the offline DEEP placement, and the text app must pull 5 of its 6
// images from the regional registry (the paper's 83%).
func buildWarmCaseStudy(in *inputs, rng *rand.Rand, tiny bool) error {
	for _, app := range []*dag.App{workload.VideoProcessing(), workload.TextProcessing()} {
		i := in.addApp(app)
		exp, err := expectedPlacement(app, in.cluster())
		if err != nil {
			return err
		}
		in.apps[i].expect = exp
	}
	regional := 0
	for _, a := range in.apps[1].expect {
		if a.Registry == "regional" {
			regional++
		}
	}
	if regional != 5 || len(in.apps[1].expect) != 6 {
		return fmt.Errorf("text app pulls %d of %d images from regional, want 5 of 6", regional, len(in.apps[1].expect))
	}
	raw, err := in.specJSON()
	if err != nil {
		return err
	}
	n := 1024
	if tiny {
		n = 64
	}
	for i := 0; i < n; i++ {
		// Strict alternation keeps the video/text share, and with it the
		// energy and makespan means, the same on every seed.
		r, err := singleDeploy(raw, fmt.Sprintf("tenant-%d", rng.Intn(4)), int32(i%2), rng.Int63n(1<<20))
		if err != nil {
			return err
		}
		in.pool = append(in.pool, r)
	}
	in.warm = in.pool[:8]
	return nil
}

// coldApps is the cold pool size. It is four times the placement cache
// (1024 entries) and sixteen times the shape and app-table caches (256), so
// cycling it in order misses every level on every call.
const coldApps = 4096

// coldResolveOneIn is the sampling rate of the offline re-solve check.
const coldResolveOneIn = 64

// buildColdSynthetic: every call carries a distinct 12-microservice app on
// ScaledTestbed(16), so each one compiles its shape and runs exact pair
// games at the cell cap. A seeded 1-in-64 sample is re-solved offline.
func buildColdSynthetic(in *inputs, rng *rand.Rand, tiny bool) error {
	n, warm := coldApps, 8
	if tiny {
		n = 48
	}
	base := rng.Int63n(1 << 40)
	for i := 0; i < n+warm; i++ {
		app, err := workload.Generate(workload.DefaultGeneratorConfig(12, base+int64(i)))
		if err != nil {
			return err
		}
		idx := in.addApp(app)
		in.apps[idx].resolve = i < n && rng.Intn(coldResolveOneIn) == 0
	}
	raw, err := in.specJSON()
	if err != nil {
		return err
	}
	for i := 0; i < n+warm; i++ {
		r, err := singleDeploy(raw, fmt.Sprintf("tenant-%d", rng.Intn(8)), int32(i), rng.Int63n(1<<20))
		if err != nil {
			return err
		}
		if i < n {
			in.pool = append(in.pool, r)
		} else {
			in.warm = append(in.warm, r)
		}
	}
	return nil
}

// batchItems is the item count of every batch-synthetic call.
const batchItems = 16

// buildBatchSynthetic: 16-item batches drawn from 16 tenants × 8 shapes of
// 8 microservices, so this loads the same warm layers as warm-casestudy
// through SubmitBatch and ~27 KB bodies. The 128 apps fit every cache: the
// shape cache's 8 shards hold 32 each, and 128 apps rarely put more than 32
// on one shard. They are also enough apps that the energy and makespan means
// stay within a few percent from seed to seed.
func buildBatchSynthetic(in *inputs, rng *rand.Rand, tiny bool) error {
	const tenants, shapes = 16, 8
	mix, err := fleet.SyntheticMix(tenants, shapes, 8, rng.Int63n(1<<40))
	if err != nil {
		return err
	}
	for _, e := range mix {
		for _, app := range e.Apps {
			in.addApp(app)
		}
	}
	raw, err := in.specJSON()
	if err != nil {
		return err
	}
	batch := func(t int, apps []int32) (request, error) {
		env := fleetd.DeployBatchRequest{Tenant: mix[t].Tenant}
		for _, a := range apps {
			env.Items = append(env.Items, fleetd.DeployBatchItem{Seed: rng.Int63n(1 << 20), App: raw[a]})
		}
		b, err := json.Marshal(env)
		return request{body: b, apps: apps}, err
	}
	for t := range mix {
		apps := make([]int32, shapes)
		for s := range apps {
			apps[s] = int32(t*shapes + s)
		}
		r, err := batch(t, apps)
		if err != nil {
			return err
		}
		in.warm = append(in.warm, r)
	}
	n := 256
	if tiny {
		n = 16
	}
	for i := 0; i < n; i++ {
		t := rng.Intn(tenants)
		apps := make([]int32, batchItems)
		for k := range apps {
			apps[k] = int32(t*shapes + rng.Intn(shapes))
		}
		r, err := batch(t, apps)
		if err != nil {
			return err
		}
		in.pool = append(in.pool, r)
	}
	return nil
}

// buildChurnSynthetic: single deploys from 16 tenants × 8 shapes of 8
// microservices on ScaledTestbed(4), while a seeded chaos schedule crashes
// devices, takes registries down and degrades links (see churnSchedule).
func buildChurnSynthetic(in *inputs, rng *rand.Rand, tiny bool) error {
	const tenants, shapes = 16, 8
	mix, err := fleet.SyntheticMix(tenants, shapes, 8, rng.Int63n(1<<40))
	if err != nil {
		return err
	}
	for _, e := range mix {
		for _, app := range e.Apps {
			in.addApp(app)
		}
	}
	raw, err := in.specJSON()
	if err != nil {
		return err
	}
	for i := range in.apps {
		r, err := singleDeploy(raw, mix[i/shapes].Tenant, int32(i), rng.Int63n(1<<20))
		if err != nil {
			return err
		}
		in.warm = append(in.warm, r)
	}
	n := 1024
	if tiny {
		n = 64
	}
	for i := 0; i < n; i++ {
		t := rng.Intn(tenants)
		r, err := singleDeploy(raw, mix[t].Tenant, int32(t*shapes+rng.Intn(shapes)), rng.Int63n(1<<20))
		if err != nil {
			return err
		}
		in.pool = append(in.pool, r)
	}
	return nil
}

// Churn fault rates per second, by class: device crashes, registry
// outages, link degradations.
const crashRate, outageRate, degradeRate = 0.2, 0.2, 0.1

// churnSchedule is the seeded fault schedule one churn-synthetic session
// replays over its measured horizon: device crashes (at least half the
// devices stay up), registry outages (one registry always serves), and
// link degradations, each class a Poisson process with ~0.4 s mean
// downtime. Every fault and recovery is a new cluster epoch whose first
// calls re-solve; at about 0.5 faults/s most calls stay on the warm path,
// while registry outages still invalidate cached placements in every run.
//
// Each epoch's re-solves cost enough that a Poisson fault count alone
// moved capacity by 10% from seed to seed, so each class's count is fixed
// at its rate times the horizon, every fault recovering within it: the
// schedule is the first of a seeded series of chaos.Generate draws whose
// counts match (or the closest), and only the times and targets come from
// the seed.
func churnSchedule(in *inputs, session int, horizon time.Duration) (*chaos.Schedule, error) {
	cfg := churnConfig(in, horizon)
	h := horizon.Seconds()
	want := [...]int{int(math.Round(crashRate * h)), int(math.Round(outageRate * h)), int(math.Round(degradeRate * h))}
	var best *chaos.Schedule
	bestOff := -1
	for try := int64(0); try < 4096 && bestOff != 0; try++ {
		cfg.Seed = (in.seed*31+int64(session))<<12 + try
		sched, err := chaos.Generate(cfg)
		if err != nil {
			return nil, err
		}
		// Kinds pair up as fault, recovery: crash, outage, degradation.
		var got [3]int
		for _, ev := range sched.Events {
			if ev.At < horizon {
				got[ev.Kind/2]++
			}
		}
		off := 0
		for k := range got {
			off += max(got[k]-2*want[k], 2*want[k]-got[k])
		}
		if bestOff < 0 || off < bestOff {
			best, bestOff = sched, off
		}
	}
	return best, nil
}

// churnConfig is the chaos configuration of the workload's cluster: every
// device may crash, either registry may go down, and each device's link to
// one registry node may degrade.
func churnConfig(in *inputs, horizon time.Duration) chaos.Config {
	c := in.cluster()
	var devices, registries []string
	for _, d := range c.Devices {
		devices = append(devices, d.Name)
	}
	for _, r := range c.Registries {
		registries = append(registries, r.Name)
	}
	// Each device's link to one registry node, alternating hub and regional.
	var links [][2]string
	for i, d := range devices {
		node := workload.HubNode
		if i%2 == 1 {
			node = workload.RegionalNode
		}
		links = append(links, [2]string{node, d})
	}
	return chaos.Config{
		Horizon:           horizon,
		Devices:           devices,
		MinLiveDevices:    len(devices) / 2,
		CrashRate:         crashRate,
		MeanDowntime:      400 * time.Millisecond,
		Registries:        registries,
		MinLiveRegistries: 1,
		OutageRate:        outageRate,
		MeanOutage:        400 * time.Millisecond,
		Links:             links,
		DegradeRate:       degradeRate,
		MeanDegrade:       400 * time.Millisecond,
	}
}
