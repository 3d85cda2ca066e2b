package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/multicity"
	"ptrider/internal/wal"
)

// metro-batch: one in-process *multicity.Router over two large cities
// with per-city WAL journals in async mode and relay off. One
// closed-loop client submits each round's arrivals as one
// SubmitRequestBatch whose riders choose in-line, then calls Advance.
// Every request carries a local MaxPickupSeconds, so schedules stay
// shallow and whole-graph distance fills on the large graphs dominate.
//
// The last arrival of each city in a round does not join the batch: it
// quotes with SubmitRequest and then calls Choose or Decline. A batch
// commits in-line and hands nothing back until every rider of both
// cities is done, so these riders are how the run times one journaled
// commit (choose_p50_ms) on the large fleet.

type metroSizes struct {
	shape      cityShape
	taxis      int
	dt         float64
	peakRate   float64 // arrivals per simulated second, both cities together
	rampRounds int
	warmRounds int
}

func metroSize(tiny bool) metroSizes {
	if tiny {
		return metroSizes{cityShape{14, 14, 250, 0}, 60, 10, 0.4, 2, 2}
	}
	return metroSizes{cityShape{60, 60, 250, 0}, 2000, 10, 3, 10, 30}
}

// metroPickupSeconds is the pick-up cutoff every metro-batch request
// carries.
const metroPickupSeconds = 240

var metroCities = []string{"north", "south"}

type metroState struct {
	router  *multicity.Router
	engines []*core.Engine
	gen     *roundGen
	dt      float64
	walDir  string

	committed []map[core.RequestID]bool // per city, city-local ids
	items     int64
	commits   int64
}

type metroMeasure struct {
	quote, choose, tick samples
	single              samples // SubmitRequest of the riders outside the batch
	skew                []float64
	ops                 *opCounts
	tr                  *tracer
}

var walSeq atomic.Int64

func runMetroBatch(cfg *config, tr *tracer) (*result, error) {
	sz := metroSize(cfg.tiny)
	rng := rand.New(rand.NewSource(mapSeed))
	var cities []cityInput
	var dems []*demand
	for i := range metroCities {
		shape := sz.shape
		shape.OriginX = float64(i) * (float64(shape.W)*shape.Spacing + 2000)
		cities = append(cities, makeCity(shape, rng))
	}
	for i := range cities {
		dems = append(dems, newDemand(&cities[i]))
	}
	res := newResult()

	setup := func() (*metroState, error) {
		dir := filepath.Join(cfg.out, fmt.Sprintf("wal-metro-%d-%d", os.Getpid(), walSeq.Add(1)))
		var specs []multicity.CitySpec
		for i := range cities {
			g, err := cities[i].build()
			if err != nil {
				return nil, err
			}
			specs = append(specs, multicity.CitySpec{
				Name: metroCities[i], Graph: g, Vehicles: sz.taxis,
				Config: core.Config{
					Capacity: 4, MaxWaitSeconds: 300, Sigma: 0.4,
					Algorithm: core.AlgoDualSide, Seed: cfg.seed + int64(i),
				},
			})
		}
		r, err := multicity.NewWithConfig(specs, multicity.RouterConfig{Durability: wal.ModeAsync, WALDir: dir})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		st := &metroState{router: r, dt: sz.dt, walDir: dir,
			committed: []map[core.RequestID]bool{{}, {}},
			gen: &roundGen{rng: rand.New(rand.NewSource(cfg.seed + 1)), dems: dems,
				ramp: sz.rampRounds, peak: sz.peakRate, dt: sz.dt}}
		for _, name := range metroCities {
			e, err := r.Engine(name)
			if err != nil {
				st.close()
				return nil, err
			}
			st.engines = append(st.engines, e)
		}
		for i := 0; i < sz.rampRounds+sz.warmRounds; i++ {
			st.round(nil, res.ck)
		}
		return st, nil
	}
	st, setupS, err := repeatSetup(setups, setup, (*metroState).close)
	if err != nil {
		return nil, fmt.Errorf("metro-batch set-up: %w", err)
	}
	defer st.close()
	res.e2e["setup_s"] = setupS
	res.e2e["peak_rss_mb"] = peakRSSMB()

	m := &metroMeasure{ops: res.ops, tr: tr}
	before, gc0 := snapEngines(st.engines), readGoCounters()
	cpu0 := processCPUms()
	tr.measure(true)
	var rate windows
	start := time.Now()
	for n := 0; time.Since(start).Seconds() < cfg.seconds; n++ {
		q := m.quote.n() + m.single.n()
		wall := st.round(m, res.ck)
		rate.add(m.quote.n()+m.single.n()-q, wall)
		if n%5 == 0 {
			for i, e := range st.engines {
				res.ck.checkOnboard(metroCities[i], e.VehicleViews(0), 4)
			}
		}
	}
	tr.measure(false)
	after, gc1 := snapEngines(st.engines), readGoCounters()
	quotes := m.quote.n() + m.single.n()
	res.e2e["cpu_ms_per_request"] = (processCPUms() - cpu0) / float64(quotes)
	res.e2e["requests_per_s"] = rate.median()
	res.latencies(&m.quote, &m.choose, &m.tick)
	engineLayers(res.layers, before, after)
	goLayers(res.layers, gc0, gc1, quotes)

	ps := probes(st.engines[0].Graph(), probeCount(cfg.tiny))
	mt := matchTimes{}
	res.ck.checkExactness(metroCities[0], st.engines[0], ps, mt)
	matchLayers(res.layers, mt, st.engines[0].Graph(), ps)
	for i, e := range st.engines {
		recs, err := e.Requests("", core.RequestFilter{}, 0)
		if err != nil {
			return nil, err
		}
		res.ck.checkRecords(metroCities[i], e.Graph(), e.Speed(), recs, func(*core.ServiceRecord) float64 { return metroPickupSeconds })
	}

	if err := drain(st.router.Advance, func() bool {
		s := st.router.ServiceStats().Total
		return s.Completed == s.Assigned
	}, sz.dt); err != nil {
		res.ck.failf("metro-batch drain: %v", err)
	}
	for i, e := range st.engines {
		recs, err := e.Requests("", core.RequestFilter{}, 0)
		if err != nil {
			return nil, err
		}
		res.ck.checkDrained(metroCities[i], recs, st.committed[i], e.VehicleViews(0))
	}
	tot := st.router.ServiceStats().Total
	res.ck.checkEqual("requests", tot.Requests, st.items)
	res.ck.checkEqual("assigned", tot.Assigned, st.commits)
	res.ck.checkEqual("completed", tot.Completed, st.commits)
	res.ck.checkEqual("declined", tot.Declined, st.items-st.commits)

	if tr != nil {
		a := tr.resolve(map[string][]string{
			"router.batch": {"client.round"}, "router.advance": {"client.round"},
			"router.submit": {"client.round"}, "router.choose": {"client.round"},
			"router.decline": {"client.round"},
		})
		res.spans = a
		res.layers["multicity.batch_ms"] = median(a.durations("router.batch"))
		res.layers["multicity.city_tick_skew_ms"] = median(m.skew)
	}
	return res, nil
}

func (st *metroState) close() {
	if st == nil {
		return
	}
	// The instance is discarded: stop the journals without the final
	// snapshot a graceful Close writes, then drop them.
	st.router.Kill()
	st.router.Close()
	os.RemoveAll(st.walDir)
}

// round submits one tick window's arrivals as one batch, then advances
// both cities; it returns the round's wall time in ms.
func (st *metroState) round(m *metroMeasure, ck *checker) float64 {
	trips, singles := splitLast(st.gen.next(), len(metroCities))
	ph := phase{ck: ck}
	var tr *tracer
	if m != nil {
		ph.ops, tr = m.ops, m.tr
	}
	cons := core.DefaultConstraints()
	cons.MaxPickupSeconds = metroPickupSeconds
	picks := make([]int, len(trips))
	quoted := make([]time.Time, len(trips))
	specs := make([]core.SubmitSpec, len(trips))
	for i := range trips {
		tp := &trips[i]
		specs[i] = core.SubmitSpec{City: metroCities[tp.City], S: tp.S, D: tp.D, Riders: tp.Riders, Constraints: cons}
		speed := st.engines[tp.City].Speed()
		specs[i].Choose = func(opts []core.Option) int {
			quoted[i] = time.Now()
			pu, pr := make([]float64, len(opts)), make([]float64, len(opts))
			for k, o := range opts {
				pu[k], pr[k] = o.PickupDist/speed, o.Price
			}
			picks[i] = tp.choose(pu, pr)
			return picks[i]
		}
	}
	rs := tr.now()
	t0 := time.Now()
	recs, batchErr := st.router.SubmitRequestBatch(specs)
	tr.record("router.batch", "", rs)
	st.items += int64(len(trips))

	batchOutcome, batchWhy := okOutcome, ""
	if batchErr != nil {
		batchOutcome, batchWhy = classify(batchErr)
	}
	ph.note("batch", batchOutcome, batchWhy)
	// An item the batch did not complete takes the batch error's class
	// (refusals are correct answers); without an error it is a failure.
	itemOutcome, itemWhy := batchOutcome, batchWhy
	if batchErr == nil {
		itemOutcome, itemWhy = failed, "item left without an outcome"
	}
	for i, rec := range recs {
		if rec == nil {
			ph.note("quote", itemOutcome, itemWhy)
			continue
		}
		ci, local, err := multicity.SplitGlobalID(len(metroCities), rec.ID)
		if err != nil {
			ck.failf("batch record %d: %v", rec.ID, err)
			continue
		}
		if m != nil {
			m.quote.add(float64(quoted[i].Sub(t0).Nanoseconds()) / 1e6)
		}
		if len(rec.Options) == 0 {
			ph.note("quote", refused, "no option")
		} else {
			ph.note("quote", okOutcome, "")
		}
		switch {
		case picks[i] >= 0 && rec.Status == core.StatusAssigned:
			st.committed[ci][local] = true
			st.commits++
			ph.note("choose", okOutcome, "")
		case picks[i] >= 0:
			// The in-line commit did not land; the batch reports why.
			ph.note("choose", itemOutcome, itemWhy)
		default:
			ph.note("decline", okOutcome, "")
		}
	}

	for i := range singles {
		st.rider(&singles[i], cons, m, ph)
	}

	ts := tr.now()
	t := time.Now()
	_, err := st.router.Advance(st.dt)
	if m != nil {
		m.tick.since(t)
	}
	tr.record("router.advance", "", ts)
	ph.noteErr("tick", err)
	wall := msSince(t0)
	if tr != nil {
		a, b := st.engines[0].Stats().Tick.LastWallMs, st.engines[1].Stats().Tick.LastWallMs
		m.skew = append(m.skew, math.Abs(a-b))
	}
	tr.record("client.round", "", rs)
	return wall
}

// splitLast takes the last trip of each city out of a round's arrivals,
// keeping the order of the rest.
func splitLast(trips []trip, cities int) (batch, last []trip) {
	lastOf := make([]int, cities)
	for c := range lastOf {
		lastOf[c] = -1
	}
	for i := range trips {
		lastOf[trips[i].City] = i
	}
	for i := range trips {
		if lastOf[trips[i].City] == i {
			last = append(last, trips[i])
		} else {
			batch = append(batch, trips[i])
		}
	}
	return batch, last
}

// rider quotes one trip outside the batch and commits or declines it
// under the rider model; choose_p50_ms times the Choose call.
func (st *metroState) rider(tp *trip, cons core.Constraints, m *metroMeasure, ph phase) {
	var tr *tracer
	if m != nil {
		tr = m.tr
	}
	s0 := tr.now()
	t := time.Now()
	rec, err := st.router.SubmitRequest(core.SubmitSpec{City: metroCities[tp.City], S: tp.S, D: tp.D, Riders: tp.Riders, Constraints: cons})
	if m != nil {
		m.single.since(t)
	}
	tr.record("router.submit", "", s0)
	if err != nil {
		ph.noteErr("quote", err)
		return
	}
	st.items++
	if len(rec.Options) == 0 {
		ph.note("quote", refused, "no option")
	} else {
		ph.note("quote", okOutcome, "")
	}
	_, local, err := multicity.SplitGlobalID(len(metroCities), rec.ID)
	if err != nil {
		ph.ck.failf("record %d: %v", rec.ID, err)
		return
	}
	pu, pr := skyline(rec)
	if pick := tp.choose(pu, pr); pick >= 0 {
		s1 := tr.now()
		t = time.Now()
		err = st.router.Choose(rec.ID, pick)
		if m != nil {
			m.choose.since(t)
		}
		tr.record("router.choose", "", s1)
		ph.noteErr("choose", err)
		if err == nil {
			st.committed[tp.City][local] = true
			st.commits++
			return
		}
	}
	s2 := tr.now()
	ph.noteErr("decline", st.router.Decline(rec.ID))
	tr.record("router.decline", "", s2)
}
