package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/telemetry"
)

// peak-city: one in-process *core.Engine, a medium city at rush hour.
// Closed loop: each round is one tick window; its arrivals are split
// between the clients (at most nproc, at most 2), each rider quotes,
// then chooses or declines under the seeded choice model, and the
// round ends with one Advance. Transport, WAL and telemetry are off, so
// their layers read 0 here.

type peakSizes struct {
	shape      cityShape
	taxis      int
	dt         float64 // simulated seconds per round
	peakRate   float64 // arrivals per simulated second on the plateau
	rampRounds int     // warm-up rounds while the rush builds
	warmRounds int     // further warm-up rounds on the plateau
}

func peakSize(tiny bool) peakSizes {
	if tiny {
		return peakSizes{cityShape{12, 12, 250, 0}, 30, 10, 0.3, 3, 3}
	}
	return peakSizes{cityShape{40, 40, 250, 0}, 300, 10, 0.8, 20, 40}
}

// roundGen yields each round's arrivals in order, from its own seeded
// stream, so every set-up of a run replays the same trace.
type roundGen struct {
	rng   *rand.Rand
	dems  []*demand
	round int
	ramp  int
	peak  float64
	dt    float64
	// crossEvery makes every crossEvery-th trip end in the other city
	// (cluster-live only; 0 = never). A fixed share rather than a drawn
	// one keeps the relay load, which sets the cluster's tick and
	// set-up times, the same for every seed.
	crossEvery int
	trips      int // trips drawn so far
}

func (g *roundGen) next() []trip {
	n := poisson(g.rng, rushRate(g.round, g.ramp, g.peak)*g.dt)
	g.round++
	out := make([]trip, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.one())
	}
	return out
}

// one draws a single trip from the generator's demand mix.
func (g *roundGen) one() trip {
	c := g.rng.Intn(len(g.dems))
	tp := g.dems[c].sample(g.rng, c)
	g.trips++
	if g.crossEvery > 0 && g.trips%g.crossEvery == 0 {
		tp.DCity = 1 - c
		tp.D = g.dems[tp.DCity].dest(g.rng)
	}
	return tp
}

// peakPickupSeconds is the pick-up cutoff every peak-city rider asks
// with: vehicles that reach the rider within five minutes. At the
// default cutoff (1800 s) every quote verifies most of the fleet and
// its cost swings with the fleet's state from run to run, beyond any
// usable bound (README.md, Findings).
const peakPickupSeconds = 300

// clientCount caps the closed-loop clients at nproc and at 2.
func clientCount() int { return min(2, runtime.NumCPU()) }

type peakState struct {
	eng     *core.Engine
	gen     *roundGen
	clients int
	dt      float64

	mu        sync.Mutex
	committed map[core.RequestID]bool
	quotes    atomic.Int64 // every quote the benchmark made, warm-up included
	declines  atomic.Int64
}

// peakMeasure collects the measured phase's figures; nil during warm-up.
type peakMeasure struct {
	quote, choose, tick samples
	ops                 *opCounts
	tr                  *tracer
}

func runPeakCity(cfg *config, tr *tracer) (*result, error) {
	sz := peakSize(cfg.tiny)
	city := makeCity(sz.shape, rand.New(rand.NewSource(mapSeed)))
	dem := newDemand(&city)
	res := newResult()

	setup := func() (*peakState, error) {
		g, err := city.build()
		if err != nil {
			return nil, err
		}
		// The engine keeps the default pick-up cutoff, which the
		// MatchOnce probes on the end state use; riders ask with
		// peakPickupSeconds.
		eng, err := core.NewEngine(g, core.Config{
			Capacity: 4, MaxWaitSeconds: 300, Sigma: 0.4,
			SurgeEnabled: true, Algorithm: core.AlgoDualSide, Seed: cfg.seed,
		})
		if err != nil {
			return nil, err
		}
		eng.AddVehiclesUniform(sz.taxis)
		st := &peakState{
			eng: eng, clients: clientCount(), dt: sz.dt, committed: map[core.RequestID]bool{},
			gen: &roundGen{rng: rand.New(rand.NewSource(cfg.seed + 1)), dems: []*demand{dem},
				ramp: sz.rampRounds, peak: sz.peakRate, dt: sz.dt},
		}
		for r := 0; r < sz.rampRounds+sz.warmRounds; r++ {
			st.round(nil, res.ck)
		}
		return st, nil
	}
	st, setupS, err := repeatSetup(setups, setup, func(*peakState) {})
	if err != nil {
		return nil, fmt.Errorf("peak-city set-up: %w", err)
	}
	res.e2e["setup_s"] = setupS
	res.e2e["peak_rss_mb"] = peakRSSMB()

	m := &peakMeasure{ops: res.ops, tr: tr}
	before, gc0 := snapEngines([]*core.Engine{st.eng}), readGoCounters()
	cpu0 := processCPUms()
	tr.measure(true)
	var rate windows
	start := time.Now()
	for n := 0; time.Since(start).Seconds() < cfg.seconds; n++ {
		q := m.quote.n()
		wall := st.round(m, res.ck)
		rate.add(m.quote.n()-q, wall)

		if n%5 == 0 {
			res.ck.checkOnboard("peak-city", st.eng.VehicleViews(0), 4)
		}
	}
	tr.measure(false)
	after, gc1 := snapEngines([]*core.Engine{st.eng}), readGoCounters()
	quotes := m.quote.n()
	res.e2e["cpu_ms_per_request"] = (processCPUms() - cpu0) / float64(quotes)
	res.e2e["requests_per_s"] = rate.median()
	res.latencies(&m.quote, &m.choose, &m.tick)
	engineLayers(res.layers, before, after)
	goLayers(res.layers, gc0, gc1, quotes)

	// Quiesced end state: exactness of the matchers, then every record.
	g := st.eng.Graph()
	ps := probes(g, probeCount(cfg.tiny))
	mt := matchTimes{}
	res.ck.checkExactness("peak-city", st.eng, ps, mt)
	matchLayers(res.layers, mt, g, ps)
	recs, err := st.eng.Requests("", core.RequestFilter{}, 0)
	if err != nil {
		return nil, err
	}
	res.ck.checkRecords("peak-city", g, st.eng.Speed(), recs, func(*core.ServiceRecord) float64 { return peakPickupSeconds })

	if err := drain(st.eng.Advance, func() bool {
		s := st.eng.Stats()
		return s.Completed == s.Assigned
	}, sz.dt); err != nil {
		res.ck.failf("peak-city drain: %v", err)
	}
	recs, err = st.eng.Requests("", core.RequestFilter{}, 0)
	if err != nil {
		return nil, err
	}
	res.ck.checkDrained("peak-city", recs, st.committed, st.eng.VehicleViews(0))
	s := st.eng.Stats()
	res.ck.checkEqual("requests", s.Requests, st.quotes.Load())
	res.ck.checkEqual("assigned", s.Assigned, int64(len(st.committed)))
	res.ck.checkEqual("completed", s.Completed, int64(len(st.committed)))
	res.ck.checkEqual("declined", s.Declined, st.declines.Load())

	if tr != nil {
		a := tr.resolve(map[string][]string{
			"core.submit": {"client.round"}, "core.choose": {"client.round"},
			"core.decline": {"client.round"}, "core.advance": {"client.round"},
		})
		res.spans = a
		res.layers["core.submit_ms"] = median(a.durations("core.submit"))
		res.layers["core.quote_ms"] = median(a.durations("core.quote"))
		res.layers["core.register_ms"] = median(a.durations("core.register"))
		res.layers["core.choose_ms"] = median(a.durations("core.choose"))
		res.layers["core.advance_ms"] = median(a.durations("core.advance"))
		res.layers["core.directed_tick_fail_share"] = directedTickFailShare(cfg.tiny)
	}
	return res, nil
}

func probeCount(tiny bool) int {
	if tiny {
		return 8
	}
	return 40
}

// round plays one tick window and returns its wall time in ms
// (arrivals plus the Advance). m is nil during the warm-up.
func (st *peakState) round(m *peakMeasure, ck *checker) float64 {
	trips := st.gen.next()
	ph := phase{ck: ck}
	var tr *tracer
	if m != nil {
		ph.ops, tr = m.ops, m.tr
	}
	rs := tr.now()
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < st.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(trips); i += st.clients {
				st.rider(&trips[i], m, ph)
			}
		}(k)
	}
	wg.Wait()
	ts := tr.now()
	t := time.Now()
	_, err := st.eng.Advance(st.dt)
	if m != nil {
		m.tick.since(t)
	}
	tr.record("core.advance", "", ts)
	ph.noteErr("tick", err)
	wall := msSince(t0)
	tr.record("client.round", "", rs)
	return wall
}

// rider runs one rider's quote and choice against the engine.
func (st *peakState) rider(tp *trip, m *peakMeasure, ph phase) {
	var tr *tracer
	cons := core.DefaultConstraints()
	cons.MaxPickupSeconds = peakPickupSeconds
	spec := core.SubmitSpec{S: tp.S, D: tp.D, Riders: tp.Riders, Constraints: cons}
	var sp *telemetry.Span
	if m != nil && m.tr != nil {
		tr = m.tr
		sp = telemetry.NewSpan("")
		spec.Span = sp
	}
	s0 := tr.now()
	t := time.Now()
	rec, err := st.eng.SubmitRequest(spec)
	if m != nil {
		m.quote.since(t)
	}
	if id := tr.record("core.submit", "", s0); id != 0 {
		for _, stg := range sp.Stages() {
			tr.stage("core."+stg.Name, id, s0, stg.Seconds)
		}
	}
	if err != nil {
		ph.noteErr("quote", err)
		return
	}
	st.quotes.Add(1)
	if len(rec.Options) == 0 {
		ph.note("quote", refused, "no option")
	} else {
		ph.note("quote", okOutcome, "")
	}
	pu, pr := skyline(rec)
	if pick := tp.choose(pu, pr); pick >= 0 {
		s1 := tr.now()
		t = time.Now()
		err = st.eng.Choose(rec.ID, pick)
		if m != nil {
			m.choose.since(t)
		}
		tr.record("core.choose", "", s1)
		ph.noteErr("choose", err)
		if err == nil {
			st.mu.Lock()
			st.committed[rec.ID] = true
			st.mu.Unlock()
			return
		}
	}
	// No pick, or a refused choice: the rider walks away.
	s2 := tr.now()
	err = st.eng.Decline(rec.ID)
	tr.record("core.decline", "", s2)
	ph.noteErr("decline", err)
	if err == nil {
		st.declines.Add(1)
	}
}

// skyline renders a record's options as the rider sees them.
func skyline(rec *core.ServiceRecord) (pickupSec, price []float64) {
	for _, o := range rec.Options {
		pickupSec = append(pickupSec, rec.PickupSecondsOf(o))
		price = append(price, o.Price)
	}
	return
}

// drain advances simulated time until done reports true, for at most
// six simulated hours.
func drain(advance func(float64) ([]core.ServiceEvent, error), done func() bool, dt float64) error {
	for t := 0.0; t < 6*3600; t += dt {
		if done() {
			return nil
		}
		if _, err := advance(dt); err != nil {
			return err
		}
	}
	if done() {
		return nil
	}
	return fmt.Errorf("riders still travelling after six simulated hours")
}

// repeatSetup builds the workload's system n times, timing each, and
// keeps the last; setup_s is the median. Earlier instances are closed
// and collected first so they weigh on neither timing nor memory.
func repeatSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(st)
		}
		settle()
		t := time.Now()
		s, err := setup()
		if err != nil {
			return st, 0, err
		}
		st = s
		times = append(times, time.Since(t).Seconds())
	}
	fmt.Printf("set-up times: %.3f s\n", times)
	return st, median(times), nil
}
