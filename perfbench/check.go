package main

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
)

// checker collects correctness violations. Every check below compares
// the program's answers with an independent computation or a property
// the paper states, never with recorded output.
type checker struct {
	mu         sync.Mutex
	n          int      // violations found
	violations []string // the first few, for the report
	checked    map[string]int
}

func newChecker() *checker { return &checker{checked: map[string]int{}} }

func (c *checker) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.violations) < 20 {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

func (c *checker) count(check string, n int) {
	c.mu.Lock()
	c.checked[check] += n
	c.mu.Unlock()
}

func (c *checker) failures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// fareRatio is the paper's price ratio f_n for a group of n riders
// (§2.4: 0.3 for one rider, +0.1 per extra rider). A surge multiplier
// only raises it.
func fareRatio(n int) float64 { return 0.3 + 0.1*float64(n-1) }

const tol = 1e-6

// distHeap is the priority queue of the reference Dijkstra.
type distHeap []distItem

type distItem struct {
	v roadnet.VertexID
	d float64
}

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDist is a plain Dijkstra over Graph.Out, independent of the
// program's searchers, memo and bounds. It returns the distances from
// s to every target, stopping once all targets are settled.
type refDist struct {
	g    *roadnet.Graph
	dist []float64
	seen []bool
	used []roadnet.VertexID
}

func newRefDist(g *roadnet.Graph) *refDist {
	n := g.NumVertices()
	r := &refDist{g: g, dist: make([]float64, n), seen: make([]bool, n)}
	for i := range r.dist {
		r.dist[i] = math.Inf(1)
	}
	return r
}

func (r *refDist) from(s roadnet.VertexID, targets []roadnet.VertexID) map[roadnet.VertexID]float64 {
	for _, v := range r.used {
		r.dist[v], r.seen[v] = math.Inf(1), false
	}
	r.used = r.used[:0]
	want := map[roadnet.VertexID]bool{}
	for _, t := range targets {
		want[t] = true
	}
	out := make(map[roadnet.VertexID]float64, len(want))
	h := &distHeap{{s, 0}}
	r.dist[s] = 0
	r.used = append(r.used, s)
	for h.Len() > 0 && len(out) < len(want) {
		it := heap.Pop(h).(distItem)
		if r.seen[it.v] {
			continue
		}
		r.seen[it.v] = true
		if want[it.v] {
			out[it.v] = it.d
		}
		for _, e := range r.g.Out(it.v) {
			if nd := it.d + e.Weight; nd < r.dist[e.To] {
				if math.IsInf(r.dist[e.To], 1) {
					r.used = append(r.used, e.To)
				}
				r.dist[e.To] = nd
				heap.Push(h, distItem{e.To, nd})
			}
		}
	}
	for t := range want {
		if _, ok := out[t]; !ok {
			out[t] = math.Inf(1)
		}
	}
	return out
}

// checkRecords verifies every quoted record of one city: SD against the
// reference Dijkstra, no option dominating another in (pick-up,
// price), every price at least f_n·SD, and every pick-up within the
// request's cutoff (cutoffSec returns it in seconds).
func (c *checker) checkRecords(city string, g *roadnet.Graph, speed float64, recs []*core.ServiceRecord, cutoffSec func(*core.ServiceRecord) float64) {
	bySource := map[roadnet.VertexID][]roadnet.VertexID{}
	for _, r := range recs {
		bySource[r.S] = append(bySource[r.S], r.D)
	}
	sources := make([]roadnet.VertexID, 0, len(bySource))
	for s := range bySource {
		sources = append(sources, s)
	}
	ref := map[[2]roadnet.VertexID]float64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rd := newRefDist(g)
			for i := w; i < len(sources); i += workers {
				d := rd.from(sources[i], bySource[sources[i]])
				mu.Lock()
				for t, v := range d {
					ref[[2]roadnet.VertexID{sources[i], t}] = v
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	for _, r := range recs {
		want := ref[[2]roadnet.VertexID{r.S, r.D}]
		if math.Abs(r.SD-want) > tol*math.Max(1, want) {
			c.failf("%s request %d: SD %.6f, reference Dijkstra %.6f", city, r.ID, r.SD, want)
		}
		limit := cutoffSec(r) * speed
		floor := fareRatio(r.Riders) * want
		for i, a := range r.Options {
			if a.Price < floor-tol*math.Max(1, floor) {
				c.failf("%s request %d option %d: price %.4f below f_n·dist(s,d) = %.4f", city, r.ID, i, a.Price, floor)
			}
			if a.PickupDist > limit+tol*math.Max(1, limit) {
				c.failf("%s request %d option %d: pick-up %.1f m beyond the %.1f m cutoff", city, r.ID, i, a.PickupDist, limit)
			}
			for j, b := range r.Options {
				if i != j && a.PickupDist <= b.PickupDist && a.Price <= b.Price &&
					(a.PickupDist < b.PickupDist || a.Price < b.Price) {
					c.failf("%s request %d: option %d dominates option %d", city, r.ID, i, j)
				}
			}
		}
	}
	c.count("records", len(recs))
}

// checkOnboard verifies the capacity invariant on a vehicle sample.
func (c *checker) checkOnboard(city string, views []core.VehicleView, capacity int) {
	for _, v := range views {
		if v.Onboard > capacity {
			c.failf("%s vehicle %d carries %d riders, capacity %d", city, v.ID, v.Onboard, capacity)
		}
	}
	c.count("vehicle samples", len(views))
}

// checkDrained verifies the end state after the final drain: every
// committed request completed within its detour limit, and every
// vehicle is empty. committed holds the city-local ids the benchmark
// saw commit.
func (c *checker) checkDrained(city string, recs []*core.ServiceRecord, committed map[core.RequestID]bool, views []core.VehicleView) {
	byID := make(map[core.RequestID]*core.ServiceRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	for id := range committed {
		r, ok := byID[id]
		if !ok {
			c.failf("%s committed request %d missing from the ledger", city, id)
			continue
		}
		if r.Status != core.StatusCompleted {
			c.failf("%s committed request %d is %v after the drain", city, id, r.Status)
			continue
		}
		if ride, lim := r.DropoffOdo-r.PickupOdo, (1+r.Sigma)*r.SD; ride > lim+tol*math.Max(1, lim) {
			c.failf("%s request %d rode %.1f m, limit (1+σ)·dist = %.1f m", city, id, ride, lim)
		}
	}
	for _, v := range views {
		if v.Onboard != 0 || v.Pending != 0 {
			c.failf("%s vehicle %d not empty after the drain (onboard %d, pending %d)", city, v.ID, v.Onboard, v.Pending)
		}
	}
	c.count("committed requests", len(committed))
}

// probes is the fixed probe set of the exactness check: the same
// origin–destination pairs on every seed (only the fleet state they
// meet depends on the seed).
func probes(g *roadnet.Graph, n int) [][2]roadnet.VertexID {
	rng := rand.New(rand.NewSource(20180801))
	out := make([][2]roadnet.VertexID, 0, n)
	nv := g.NumVertices()
	for len(out) < n {
		s, d := roadnet.VertexID(rng.Intn(nv)), roadnet.VertexID(rng.Intn(nv))
		if s != d && g.Point(s).Dist(g.Point(d)) > 800 {
			out = append(out, [2]roadnet.VertexID{s, d})
		}
	}
	return out
}

// matchTimes are the per-probe MatchOnce timings of one algorithm.
type matchTimes map[core.Algorithm][]float64

// checkExactness runs naive, single-side and dual-side MatchOnce over
// the probe set on a quiesced engine and requires the dual-side
// skyline to equal the naive one in (pick-up, price) for every probe —
// the paper's exactness property. It returns the timings.
func (c *checker) checkExactness(city string, eng *core.Engine, ps [][2]roadnet.VertexID, mt matchTimes) {
	algos := []core.Algorithm{core.AlgoNaive, core.AlgoSingleSide, core.AlgoDualSide}
	for pi, p := range ps {
		var sky [3][]core.Option
		for ai, a := range algos {
			t := time.Now()
			opts, _, err := eng.MatchOnce(a, p[0], p[1], 1)
			mt[a] = append(mt[a], msSince(t))
			if err != nil {
				c.failf("%s probe %d %v: %v", city, pi, a, err)
				continue
			}
			sky[ai] = append([]core.Option(nil), opts...)
			sort.Slice(sky[ai], func(i, j int) bool {
				if sky[ai][i].PickupDist != sky[ai][j].PickupDist {
					return sky[ai][i].PickupDist < sky[ai][j].PickupDist
				}
				return sky[ai][i].Price < sky[ai][j].Price
			})
		}
		naive, dual := sky[0], sky[2]
		if len(naive) != len(dual) {
			c.failf("%s probe %d: naive skyline has %d options, dual-side %d", city, pi, len(naive), len(dual))
			continue
		}
		for i := range naive {
			if math.Abs(naive[i].PickupDist-dual[i].PickupDist) > tol || math.Abs(naive[i].Price-dual[i].Price) > tol {
				c.failf("%s probe %d option %d: naive (%.3f, %.3f) vs dual-side (%.3f, %.3f)", city, pi, i,
					naive[i].PickupDist, naive[i].Price, dual[i].PickupDist, dual[i].Price)
			}
		}
	}
	c.count("exactness probes", len(ps))
}

// checkEqual records a conservation violation when two counts differ.
func (c *checker) checkEqual(what string, program, bench int64) {
	if program != bench {
		c.failf("ledger: %s is %d, the benchmark counted %d", what, program, bench)
	}
	c.count("ledger counts", 1)
}
