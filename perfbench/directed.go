package main

import (
	"math/rand"

	"ptrider/internal/core"
)

// directedTickFailShare replays a short fixed rush on a small city
// whose two street directions are weighted independently and returns
// the share of its Advance calls that fail. The workloads' cities weight
// both directions alike, because on directed weights the engine's tick
// fails ("pending requests but no valid schedule"; README.md,
// Findings). This probe keeps that failure in view: it reads 0 once the
// engine serves directed graphs, or refuses them at NewEngine. Its
// inputs do not depend on --seed.
func directedTickFailShare(tiny bool) float64 {
	shape, taxis, rounds := cityShape{16, 16, 250, 0}, 40, 60
	if tiny {
		shape, taxis, rounds = cityShape{10, 10, 250, 0}, 15, 20
	}
	rng := rand.New(rand.NewSource(mapSeed))
	city := makeCity(shape, rng)
	city.reweightReverse(rng)
	g, err := city.build()
	if err != nil {
		return 0
	}
	eng, err := core.NewEngine(g, core.Config{
		Capacity: 4, MaxWaitSeconds: 300, Sigma: 0.4,
		Algorithm: core.AlgoDualSide, Seed: mapSeed,
	})
	if err != nil {
		return 0 // refusing a directed graph is a correct answer
	}
	eng.AddVehiclesUniform(taxis)
	gen := &roundGen{rng: rng, dems: []*demand{newDemand(&city)}, ramp: 1, peak: 0.3, dt: 10}
	failedTicks := 0
	for r := 0; r < rounds; r++ {
		for _, tp := range gen.next() {
			rec, err := eng.SubmitRequest(core.SubmitSpec{S: tp.S, D: tp.D, Riders: tp.Riders, Constraints: core.DefaultConstraints()})
			if err != nil {
				continue
			}
			pu, pr := skyline(rec)
			if pick := tp.choose(pu, pr); pick < 0 || eng.Choose(rec.ID, pick) != nil {
				_ = eng.Decline(rec.ID)
			}
		}
		if _, err := eng.Advance(gen.dt); err != nil {
			failedTicks++
		}
	}
	return float64(failedTicks) / float64(rounds)
}

// reweightReverse gives the second direction of every street (makeCity
// appends the two directions in pairs) a weight of its own, drawn like
// a minor street's.
func (c *cityInput) reweightReverse(rng *rand.Rand) {
	for i := 1; i < len(c.Edges); i += 2 {
		e := &c.Edges[i]
		e.W = c.Points[e.U].Dist(c.Points[e.V]) * (1.3 + 0.6*rng.Float64())
	}
}
