package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"ptrider/internal/cluster"
	"ptrider/internal/core"
	"ptrider/internal/multicity"
	"ptrider/internal/server"
	"ptrider/internal/telemetry"
	"ptrider/internal/wal"
)

// cluster-live: open loop over real sockets. An HTTP client sends to
// the /v1 server, which calls cluster.Gateway, whose ShardClients reach
// two loopback cluster.NewShardHandler shards and their engines (async
// WAL, telemetry on). Every tenth trip crosses the city boundary
// and run the relay two-phase commit. Seeded Poisson arrivals come at
// a fixed rate the host sustains with headroom; POST /v1/ticks runs on
// a fixed wall-clock period; every latency is timed from the moment
// the operation was due.

type liveSizes struct {
	shapes       [2]cityShape
	taxis        [2]int
	rate         float64       // arrivals per wall second
	tickEvery    time.Duration // wall period of POST /v1/ticks
	dt           float64       // simulated seconds per tick
	crossEvery   int           // every crossEvery-th trip is cross-city
	warmArrivals int           // arrivals replayed unpaced during set-up
}

func liveSize(tiny bool) liveSizes {
	if tiny {
		return liveSizes{[2]cityShape{{10, 10, 250, 0}, {8, 8, 250, 2650}}, [2]int{20, 15}, 40, 100 * time.Millisecond, 30, 10, 30}
	}
	return liveSizes{[2]cityShape{{20, 20, 250, 0}, {16, 16, 250, 5150}}, [2]int{120, 90}, 100, 100 * time.Millisecond, 30, 10, 300}
}

var liveCities = []string{"alpha", "beta"}

// event is one scheduled client operation: an arrival (a rider) or a
// tick.
type event struct {
	due  time.Duration // offset from the phase start
	tick bool
	trip trip
	seq  int64
}

// schedule draws the open-loop timetable: Poisson arrivals at the
// given rate plus ticks every period, over [0, horizon).
func schedule(rng *rand.Rand, gen *roundGen, sz liveSizes, horizon time.Duration, seq *int64) []event {
	var ev []event
	for t := time.Duration(0); t < horizon; t += sz.tickEvery {
		ev = append(ev, event{due: t, tick: true})
	}
	for t := time.Duration(rng.ExpFloat64() / sz.rate * float64(time.Second)); t < horizon; t += time.Duration(rng.ExpFloat64() / sz.rate * float64(time.Second)) {
		*seq++
		ev = append(ev, event{due: t, trip: gen.one(), seq: *seq})
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].due < ev[j].due })
	return ev
}

// warmSchedule is the set-up's timetable: exactly warmArrivals
// arrivals with a tick before every rate × tickEvery of them, so the
// warm-up is the same amount of work whatever the seed.
func warmSchedule(gen *roundGen, sz liveSizes, seq *int64) []event {
	perTick := max(1, int(math.Round(sz.rate*sz.tickEvery.Seconds())))
	var ev []event
	for i := 0; i < sz.warmArrivals; i++ {
		if i%perTick == 0 {
			ev = append(ev, event{tick: true})
		}
		*seq++
		ev = append(ev, event{trip: gen.one(), seq: *seq})
	}
	return ev
}

// liveState is one assembled cluster.
type liveState struct {
	cities  []cityInput
	engines []*core.Engine
	gw      *cluster.Gateway
	servers []*http.Server
	served  sync.WaitGroup
	base    string // the /v1 server's URL
	clients []*http.Client
	walDir  string
	dt      float64
	tr      *tracer

	mu             sync.Mutex
	localQuoted    []map[core.RequestID]bool // per city, city-local ids
	localCommitted []map[core.RequestID]bool
	relayTrips     []core.RequestID
	relayCommitted map[core.RequestID]bool
	relayChooses   int64
	localQuotes    int64
}

type liveMeasure struct {
	quote, relayQuote, choose, tick samples
	lag                             samples
	ops                             *opCounts
	last                            time.Time
}

func runClusterLive(cfg *config, tr *tracer) (*result, error) {
	sz := liveSize(cfg.tiny)
	rng := rand.New(rand.NewSource(mapSeed))
	var cities []cityInput
	for i := range sz.shapes {
		cities = append(cities, makeCity(sz.shapes[i], rng))
	}
	var dems []*demand
	for i := range cities {
		dems = append(dems, newDemand(&cities[i]))
	}
	res := newResult()
	var seq int64

	// The warm-up timetable and the measured one come from one stream,
	// drawn before any set-up, so every set-up replays the same warm-up.
	gen := &roundGen{rng: rand.New(rand.NewSource(cfg.seed + 1)), dems: dems, crossEvery: sz.crossEvery}
	warm := warmSchedule(gen, sz, &seq)
	measured := schedule(gen.rng, gen, sz, time.Duration(cfg.seconds*float64(time.Second)), &seq)

	setup := func() (*liveState, error) {
		st, err := startCluster(cfg, cities, sz, tr)
		if err != nil {
			return nil, err
		}
		// Warm-up: the first arrivals and their ticks, unpaced, on one
		// connection, so the fleet is loaded before timing starts.
		for i := range warm {
			st.play(st.clients[0], &warm[i], time.Now(), nil, res.ck)
		}
		return st, nil
	}
	st, setupS, err := repeatSetup(setups, setup, (*liveState).close)
	if err != nil {
		return nil, fmt.Errorf("cluster-live set-up: %w", err)
	}
	defer st.close()
	res.e2e["setup_s"] = setupS
	res.e2e["peak_rss_mb"] = peakRSSMB()

	m := &liveMeasure{ops: res.ops}
	before, gc0 := snapEngines(st.engines), readGoCounters()
	relay0 := st.gw.ServiceStats().Relay
	cpu0 := processCPUms()
	tr.measure(true)
	start := time.Now()
	var wg sync.WaitGroup
	var lastMu sync.Mutex
	for k := range st.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var mine []event
			for i := range measured {
				// Client 0 also carries the ticks.
				if (measured[i].tick && k == 0) || (!measured[i].tick && int(measured[i].seq)%len(st.clients) == k) {
					mine = append(mine, measured[i])
				}
			}
			for i := range mine {
				due := start.Add(mine[i].due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				m.lag.add(float64(time.Since(due).Nanoseconds()) / 1e6)
				st.play(st.clients[k], &mine[i], due, m, res.ck)
				if mine[i].tick && i%40 == 0 {
					for c, e := range st.engines {
						res.ck.checkOnboard(liveCities[c], e.VehicleViews(0), 4)
					}
				}
			}
			lastMu.Lock()
			if t := time.Now(); t.After(m.last) {
				m.last = t
			}
			lastMu.Unlock()
		}(k)
	}
	wg.Wait()
	tr.measure(false)
	after, gc1 := snapEngines(st.engines), readGoCounters()
	relay1 := st.gw.ServiceStats().Relay
	quotes := m.quote.n()
	res.e2e["cpu_ms_per_request"] = (processCPUms() - cpu0) / float64(quotes)
	res.e2e["requests_per_s"] = float64(quotes) / m.last.Sub(start).Seconds()
	res.latencies(&m.quote, &m.choose, &m.tick)
	engineLayers(res.layers, before, after)
	goLayers(res.layers, gc0, gc1, quotes)
	res.layers["load.generator_lag_ms"] = m.lag.quantile(0.99)
	res.layers["relay.quote_ms"] = m.relayQuote.quantile(0.5)
	res.layers["relay.leg_quotes_per_trip"] = ratio(float64(relay1.LegQuotes-relay0.LegQuotes), float64(relay1.Quoted-relay0.Quoted))
	st.mu.Lock()
	res.layers["relay.commit_ratio"] = ratio(float64(len(st.relayCommitted)), float64(st.relayChooses))
	st.mu.Unlock()

	if err := st.verify(res, cfg); err != nil {
		return nil, err
	}

	if tr != nil {
		a := tr.resolve(map[string][]string{
			"svc.submit": {"server.quote"}, "svc.submit_relay": {"server.quote"},
			"svc.choose": {"server.choose"}, "svc.decline": {"server.decline"},
			"svc.advance":    {"server.tick"},
			"shard.submit":   {"svc.submit", "svc.submit_relay"},
			"shard.requests": {"svc.choose", "svc.decline", "svc.advance"}, "shard.choose": {"svc.choose"},
			"shard.decline": {"svc.choose", "svc.decline"}, "shard.cancel": {"svc.choose", "svc.advance"},
			"shard.advance": {"svc.advance"}, "shard.clock": {"svc.advance"},
		})
		res.spans = a
		res.layers["server.submit_self_ms"] = median(a.selfTimes("server.quote"))
		res.layers["server.choose_self_ms"] = median(a.selfTimes("server.choose"))
		res.layers["cluster.gateway_self_ms"] = median(a.selfTimes("svc.submit"))
		res.layers["cluster.shard_submit_ms"] = median(a.durations("shard.submit"))
		res.layers["cluster.advance_ms"] = median(a.durations("shard.advance"))
		var rpcs, bytes, nq float64
		var skew []float64
		for _, name := range []string{"svc.submit", "svc.submit_relay"} {
			for _, i := range a.byName[name] {
				nq++
				for _, c := range a.children[a.spans[i].ID] {
					rpcs++
					bytes += float64(a.spans[c].Bytes)
				}
			}
		}
		for _, i := range a.byName["svc.advance"] {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, c := range a.children[a.spans[i].ID] {
				if a.spans[c].Name == "shard.advance" {
					lo, hi = math.Min(lo, a.spans[c].ms()), math.Max(hi, a.spans[c].ms())
				}
			}
			if hi >= lo {
				skew = append(skew, hi-lo)
			}
		}
		res.layers["cluster.rpcs_per_quote"] = ratio(rpcs, nq)
		res.layers["cluster.wire_bytes_per_quote"] = ratio(bytes, nq)
		res.layers["multicity.city_tick_skew_ms"] = median(skew)
	}
	return res, nil
}

// startCluster builds both city engines, hosts each behind a shard
// handler on a loopback socket, connects the gateway, and serves /v1
// over it.
func startCluster(cfg *config, cities []cityInput, sz liveSizes, tr *tracer) (*liveState, error) {
	st := &liveState{cities: cities, tr: tr, dt: sz.dt, relayCommitted: map[core.RequestID]bool{},
		walDir: filepath.Join(cfg.out, fmt.Sprintf("wal-live-%d-%d", os.Getpid(), walSeq.Add(1)))}
	var addrs []string
	for i := range cities {
		st.localQuoted = append(st.localQuoted, map[core.RequestID]bool{})
		st.localCommitted = append(st.localCommitted, map[core.RequestID]bool{})
		g, err := cities[i].build()
		if err != nil {
			st.close()
			return nil, err
		}
		eng, err := core.NewEngine(g, core.Config{
			Capacity: 4, MaxWaitSeconds: 300, Sigma: 0.4,
			Algorithm: core.AlgoDualSide, Seed: cfg.seed + int64(i),
			Durability: wal.ModeAsync, WALDir: filepath.Join(st.walDir, liveCities[i]),
			Telemetry: telemetry.NewRegistry(),
		})
		if err != nil {
			st.close()
			return nil, err
		}
		eng.AddVehiclesUniform(sz.taxis[i])
		st.engines = append(st.engines, eng)
		var h http.Handler = cluster.NewShardHandler(eng, cluster.ShardOptions{})
		if tr != nil {
			h = &timedHTTP{next: h, tr: tr, shard: liveCities[i]}
		}
		addr, err := st.serve(h)
		if err != nil {
			st.close()
			return nil, err
		}
		addrs = append(addrs, liveCities[i]+"="+addr)
	}
	gw, err := cluster.NewGateway(addrs, cluster.GatewayConfig{Registry: telemetry.NewRegistry()})
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	var svc core.Service = gw
	if tr != nil {
		svc = &timedGateway{Gateway: gw, tr: tr}
	}
	var h http.Handler = server.NewService(svc).Handler()
	if tr != nil {
		h = &timedHTTP{next: h, tr: tr}
	}
	addr, err := st.serve(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.base = "http://" + addr
	for k := 0; k < clientCount(); k++ {
		st.clients = append(st.clients, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return st, nil
}

// serve hosts h on a fresh loopback listener.
func (st *liveState) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// close stops the load clients, the gateway, every server and engine,
// waits for the serving goroutines and removes the journals.
func (st *liveState) close() {
	if st == nil {
		return
	}
	for _, c := range st.clients {
		c.CloseIdleConnections()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	st.served.Wait()
	for _, e := range st.engines {
		// Discarded: stop the journal without a final snapshot.
		e.Kill()
		e.Close()
	}
	os.RemoveAll(st.walDir)
}

// requestView is the part of the /v1 request view the client reads.
type requestView struct {
	ID      core.RequestID `json:"id"`
	Options []struct {
		PickupSeconds float64 `json:"pickup_seconds"`
		Price         float64 `json:"price"`
	} `json:"options"`
	Relay json.RawMessage `json:"relay"`
}

// call sends one JSON request and decodes a 200 answer into out; other
// statuses come back as errors carrying the envelope's message.
func (st *liveState) call(c *http.Client, kind, path, reqID, idemKey string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, st.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	start := st.tr.now()
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	st.tr.record("client."+kind, reqID, start)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct{ Code, Message string } `json:"error"`
		}
		json.Unmarshal(raw, &env)
		return fmt.Errorf("HTTP %d %s: %s", resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// play runs one scheduled event: a tick, or a rider's quote and then
// choice or decline. m is nil during the warm-up.
func (st *liveState) play(c *http.Client, ev *event, due time.Time, m *liveMeasure, ck *checker) {
	ph := phase{ck: ck}
	if m != nil {
		ph.ops = m.ops
	}
	if ev.tick {
		err := st.call(c, "tick", "/v1/ticks", fmt.Sprintf("tick-%d", ev.due), "", map[string]float64{"seconds": st.dt}, nil)
		if m != nil {
			m.tick.add(float64(time.Since(due).Nanoseconds()) / 1e6)
		}
		ph.noteErr("tick", err)
		return
	}
	tp := &ev.trip
	o, d := st.cities[tp.City].Points[tp.S], st.cities[tp.DCity].Points[tp.D]
	body := map[string]any{"ox": o.X, "oy": o.Y, "dx": d.X, "dy": d.Y, "riders": tp.Riders}
	var rv requestView
	id := quoteReqID(ev.seq)
	err := st.call(c, "quote", "/v1/requests", id, id, body, &rv)
	relay := tp.City != tp.DCity
	if m != nil {
		lat := float64(time.Since(due).Nanoseconds()) / 1e6
		m.quote.add(lat)
		if relay {
			m.relayQuote.add(lat)
		}
	}
	if err == nil && len(rv.Options) == 0 {
		ph.note("quote", refused, "no option")
	} else {
		ph.noteErr("quote", err)
	}
	if err != nil {
		return
	}
	if relay != (rv.ID < 0) {
		ck.failf("request %d: cross-city %v but relay id sign says %v", rv.ID, relay, rv.ID < 0)
	}
	st.mu.Lock()
	if rv.ID < 0 {
		st.relayTrips = append(st.relayTrips, rv.ID)
	} else if ci, local, err := multicity.SplitGlobalID(len(liveCities), rv.ID); err == nil {
		st.localQuoted[ci][local] = true
		st.localQuotes++
	}
	st.mu.Unlock()

	pu, pr := make([]float64, len(rv.Options)), make([]float64, len(rv.Options))
	for i, op := range rv.Options {
		pu[i], pr[i] = op.PickupSeconds, op.Price
	}
	if pick := tp.choose(pu, pr); pick >= 0 {
		t := time.Now()
		err := st.call(c, "choose", fmt.Sprintf("/v1/requests/%d/choice", rv.ID), chooseReqID(rv.ID), "", map[string]int{"option": pick}, nil)
		if m != nil {
			m.choose.since(t)
		}
		ph.noteErr("choose", err)
		st.mu.Lock()
		if rv.ID < 0 {
			st.relayChooses++
		}
		if err == nil {
			if rv.ID < 0 {
				st.relayCommitted[rv.ID] = true
			} else if ci, local, err := multicity.SplitGlobalID(len(liveCities), rv.ID); err == nil {
				st.localCommitted[ci][local] = true
			}
		}
		st.mu.Unlock()
		if err == nil || rv.ID < 0 {
			// A refused relay commit aborts the trip itself.
			return
		}
	}
	err = st.call(c, "decline", fmt.Sprintf("/v1/requests/%d/decline", rv.ID), declineReqID(rv.ID), "", struct{}{}, nil)
	ph.noteErr("decline", err)
}

// verify runs the cluster-live correctness checks on the quiesced
// cluster, drains it, and checks the end state and the ledger.
func (st *liveState) verify(res *result, cfg *config) error {
	ck := res.ck
	// Relay trips: committed ones own their two legs.
	legs := []map[core.RequestID]bool{{}, {}}
	for _, id := range st.relayTrips {
		rv, err := st.gw.RelayItinerary(id)
		if err != nil {
			ck.failf("relay trip %d: %v", id, err)
			continue
		}
		oc, dc := slices.Index(liveCities, rv.Origin), slices.Index(liveCities, rv.Dest)
		if oc < 0 || dc < 0 {
			ck.failf("relay trip %d: cities %q → %q", id, rv.Origin, rv.Dest)
			continue
		}
		if st.relayCommitted[id] {
			legs[oc][rv.Leg1] = true
			legs[dc][rv.Leg2] = true
		} else if rv.Leg1 != 0 || rv.Leg2 != 0 {
			ck.failf("relay trip %d is %s but holds legs %d/%d", id, rv.State, rv.Leg1, rv.Leg2)
		}
	}
	ps := probes(st.engines[0].Graph(), probeCount(cfg.tiny))
	mt := matchTimes{}
	ck.checkExactness(liveCities[0], st.engines[0], ps, mt)
	matchLayers(res.layers, mt, st.engines[0].Graph(), ps)
	transfer := 120.0
	for i, e := range st.engines {
		recs, err := e.Requests("", core.RequestFilter{}, 0)
		if err != nil {
			return err
		}
		maxPickup := e.Config().MaxPickupSeconds
		ck.checkRecords(liveCities[i], e.Graph(), e.Speed(), recs, func(r *core.ServiceRecord) float64 {
			if st.localQuoted[i][r.ID] {
				return maxPickup
			}
			return maxPickup + transfer // a relay leg's widened window
		})
		// Every booked record is a commit the benchmark made or a leg of
		// a committed relay trip: an aborted trip leaves no leg assigned.
		for _, r := range recs {
			if r.Status == core.StatusAssigned || r.Status == core.StatusOnboard || r.Status == core.StatusCompleted {
				if !st.localCommitted[i][r.ID] && !legs[i][r.ID] {
					ck.failf("%s request %d is %v but no commit of the benchmark's owns it", liveCities[i], r.ID, r.Status)
				}
			}
		}
	}

	if err := drain(st.gw.Advance, func() bool {
		s := st.gw.ServiceStats()
		return s.Total.Completed == s.Total.Assigned && s.Relay.Active == 0
	}, st.dt); err != nil {
		ck.failf("cluster-live drain: %v", err)
	}
	for i, e := range st.engines {
		recs, err := e.Requests("", core.RequestFilter{}, 0)
		if err != nil {
			return err
		}
		all := map[core.RequestID]bool{}
		for id := range st.localCommitted[i] {
			all[id] = true
		}
		for id := range legs[i] {
			all[id] = true
		}
		ck.checkDrained(liveCities[i], recs, all, e.VehicleViews(0))
	}
	for id := range st.relayCommitted {
		if rv, err := st.gw.RelayItinerary(id); err != nil || rv.State != "completed" {
			ck.failf("relay trip %d not completed after the drain (%v, %v)", id, rvState(rv), err)
		}
	}
	s := st.gw.ServiceStats()
	var localCommits int64
	for i := range st.localCommitted {
		localCommits += int64(len(st.localCommitted[i]))
	}
	relayCommits := int64(len(st.relayCommitted))
	ck.checkEqual("relay trips quoted", s.Relay.Quoted, int64(len(st.relayTrips)))
	ck.checkEqual("relay trips committed", s.Relay.Committed, relayCommits)
	// Relay leg records are not the benchmark's to count one by one
	// (a gateway whose sibling leg fails to quote leaves a declined leg
	// record that RelayStats.LegQuotes does not count), so the request
	// total is checked through the closed ledger instead: every record
	// ended committed or declined.
	var localSeen int64
	for i, e := range st.engines {
		recs, err := e.Requests("", core.RequestFilter{}, 0)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if st.localQuoted[i][r.ID] {
				localSeen++
			}
		}
	}
	ck.checkEqual("local requests in the city ledgers", localSeen, st.localQuotes)
	ck.checkEqual("requests (assigned + declined)", s.Total.Requests, s.Total.Assigned+s.Total.Declined)
	ck.checkEqual("assigned (local commits + two legs per relay commit)", s.Total.Assigned, localCommits+2*relayCommits)
	ck.checkEqual("completed", s.Total.Completed, localCommits+2*relayCommits)
	return nil
}

func rvState(rv *core.RelayView) string {
	if rv == nil {
		return "missing"
	}
	return rv.State
}
