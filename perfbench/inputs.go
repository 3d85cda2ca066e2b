package main

import (
	"math"
	"math/rand"
	"sort"

	"ptrider/internal/geo"
	"ptrider/internal/roadnet"
)

// The benchmark generates its own inputs rather than calling the
// program's generators (internal/gen), so that a change to the program
// never changes what the benchmark feeds it: everything below depends
// only on the seed and the sizes in this file.
//
// Each workload's road maps are fixed (mapSeed): a seed is one day of
// demand in the same cities, so --seed varies the trips, the riders'
// choices and the fleet's starting places, not the streets.
const mapSeed = 20180801

// cityShape describes one synthetic city: a jittered grid of
// intersections with arterials every fifth row and column and
// congested minor streets. Both directions of a street share one
// weight: on graphs whose two directions differ, the engine's tick
// fails with "pending requests but no valid schedule" (see README.md).
type cityShape struct {
	W, H    int     // intersections per side
	Spacing float64 // metres between neighbours
	OriginX float64 // x offset in the shared plane (cities must not overlap)
}

// cityInput is a generated city before the program sees it: plain
// vertex coordinates and weighted directed edges.
type cityInput struct {
	Shape  cityShape
	Points []geo.Point
	Edges  []edgeInput
}

type edgeInput struct {
	U, V roadnet.VertexID
	W    float64
}

func makeCity(shape cityShape, rng *rand.Rand) cityInput {
	c := cityInput{Shape: shape}
	w, h, sp := shape.W, shape.H, shape.Spacing
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			c.Points = append(c.Points, geo.Point{
				X: shape.OriginX + float64(i)*sp + (rng.Float64()-0.5)*0.2*sp,
				Y: float64(j)*sp + (rng.Float64()-0.5)*0.2*sp,
			})
		}
	}
	link := func(u, v int, arterial bool) {
		euclid := c.Points[u].Dist(c.Points[v])
		// Every weight stays above the Euclidean length, so the
		// program's Euclidean lower bounds remain valid.
		f := 1.25
		if !arterial {
			f = 1.3 + 0.6*rng.Float64()
		}
		for _, pair := range [][2]int{{u, v}, {v, u}} {
			c.Edges = append(c.Edges, edgeInput{roadnet.VertexID(pair[0]), roadnet.VertexID(pair[1]), euclid * f})
		}
	}
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			id := j*w + i
			if i+1 < w {
				link(id, id+1, j%5 == 0)
			}
			if j+1 < h {
				link(id, id+w, i%5 == 0)
			}
		}
	}
	return c
}

// build hands the city to the program's graph builder.
func (c *cityInput) build() (*roadnet.Graph, error) {
	b := roadnet.NewBuilder(len(c.Points), len(c.Edges))
	for _, p := range c.Points {
		b.AddVertex(p)
	}
	for _, e := range c.Edges {
		b.AddEdge(e.U, e.V, e.W)
	}
	return b.Build()
}

// bounds is the city's bounding box.
func (c *cityInput) bounds() geo.Rect { return geo.BoundingRect(c.Points) }

// trip is one rider's request as the benchmark issues it.
type trip struct {
	City   int // index of the city the trip starts in
	S, D   roadnet.VertexID
	DCity  int // index of the destination city (≠ City for a cross-city trip)
	Riders int
	// Decline is the rider's prior refusal: a rider who would decline
	// every option (price-shopping) still asks for a quote.
	Decline bool
	// ValueOfTime converts pick-up seconds into fare units in the
	// rider's choice: the chosen option minimises price + VoT·pickup.
	ValueOfTime float64
}

// demand samples rush-hour trips over one city: origins near-uniform,
// destinations drawn towards a central business district and two
// sub-centres (morning commute), at least minTrip metres apart.
type demand struct {
	city    *cityInput
	uniform []float64 // cumulative weights
	hot     []float64
	minTrip float64
}

func newDemand(c *cityInput) *demand {
	b := c.bounds()
	ctr, w, h := b.Center(), b.Width(), b.Height()
	type spot struct {
		p     geo.Point
		sigma float64
		wt    float64
	}
	spots := []spot{
		{ctr, 0.12 * math.Min(w, h), 1},
		{geo.Point{X: b.Min.X + 0.25*w, Y: b.Min.Y + 0.7*h}, 0.08 * w, 0.5},
		{geo.Point{X: b.Min.X + 0.75*w, Y: b.Min.Y + 0.3*h}, 0.08 * w, 0.5},
	}
	d := &demand{city: c, minTrip: math.Min(500, 0.2*math.Min(w, h))}
	su, sh := 0.0, 0.0
	for _, p := range c.Points {
		wt := 0.05
		for _, s := range spots {
			wt += s.wt * math.Exp(-p.DistSq(s.p)/(2*s.sigma*s.sigma))
		}
		su++
		sh += wt
		d.uniform = append(d.uniform, su)
		d.hot = append(d.hot, sh)
	}
	return d
}

func pick(rng *rand.Rand, cum []float64) roadnet.VertexID {
	return roadnet.VertexID(sort.SearchFloat64s(cum, rng.Float64()*cum[len(cum)-1]))
}

func (d *demand) origin(rng *rand.Rand) roadnet.VertexID { return pick(rng, d.uniform) }
func (d *demand) dest(rng *rand.Rand) roadnet.VertexID   { return pick(rng, d.hot) }

// sample draws one in-city trip.
func (d *demand) sample(rng *rand.Rand, city int) trip {
	for {
		s, t := d.origin(rng), d.dest(rng)
		if s != t && d.city.Points[s].Dist(d.city.Points[t]) >= d.minTrip {
			tr := trip{City: city, DCity: city, S: s, D: t}
			rider(rng, &tr)
			return tr
		}
	}
}

// rider fills the group size and the choice model of one trip.
func rider(rng *rand.Rand, tr *trip) {
	switch x := rng.Float64(); {
	case x < 0.75:
		tr.Riders = 1
	case x < 0.93:
		tr.Riders = 2
	case x < 0.98:
		tr.Riders = 3
	default:
		tr.Riders = 4
	}
	tr.Decline = rng.Float64() < 0.08
	tr.ValueOfTime = 0.2 + 2.8*rng.Float64()
}

// choose applies the rider's choice model to a skyline given as
// (pick-up seconds, price) pairs; -1 declines.
func (tr *trip) choose(pickupSec, price []float64) int {
	if tr.Decline || len(price) == 0 {
		return -1
	}
	best, bestU := -1, math.Inf(1)
	for i := range price {
		if u := price[i] + tr.ValueOfTime*pickupSec[i]; u < bestU {
			best, bestU = i, u
		}
	}
	return best
}

// poisson draws a Poisson count with the given mean (Knuth; means here
// stay small).
func poisson(rng *rand.Rand, mean float64) int {
	l, k, p := math.Exp(-mean), 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// rushRate is the arrival-rate profile of a replay: it ramps linearly
// from a fifth of the peak to the peak over the first rampRounds
// rounds and then holds the plateau, so the measured rounds (all on the
// plateau) see a fleet already loaded by the build-up.
func rushRate(round, rampRounds int, peak float64) float64 {
	if round >= rampRounds {
		return peak
	}
	return peak * (0.2 + 0.8*float64(round)/float64(rampRounds))
}
