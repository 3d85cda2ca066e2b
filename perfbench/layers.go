package main

import (
	"math"
	"time"

	"ptrider/internal/core"
	"ptrider/internal/roadnet"
)

// engSnap is the part of one engine's counters the per-layer metrics
// are deltas of. EngineStats reports running means; mean × count
// recovers the sums, so a delta covers the measured phase only.
type engSnap struct {
	reqs, ticks, assigned, stale, distCalls int64
	options, verified, pruned, cells, width float64 // sums over matches
	tickMs                                  float64 // sum over ticks
	shardSkew                               float64 // max so far
	walRecords, walFsyncs, walBytes         int64
	fsyncUs                                 float64
}

func snapEngine(e *core.Engine) engSnap {
	st := e.Stats()
	n := float64(st.Requests)
	return engSnap{
		reqs: st.Requests, ticks: st.Tick.Ticks, assigned: st.Assigned, stale: st.CommitStale,
		distCalls: e.DistCalls(),
		options:   st.AvgOptions * n, verified: st.AvgVerified * n, pruned: st.AvgPruned * n,
		cells: st.AvgCellsScanned * n, width: st.AvgMatchWidth * n,
		tickMs: st.Tick.AvgWallMs * float64(st.Tick.Ticks), shardSkew: st.Tick.MaxShardSkewMs,
		walRecords: st.Durability.Records, walFsyncs: st.Durability.Fsyncs, walBytes: st.Durability.Bytes,
		fsyncUs: st.Durability.AvgFsyncMicros,
	}
}

func snapEngines(es []*core.Engine) []engSnap {
	out := make([]engSnap, len(es))
	for i, e := range es {
		out[i] = snapEngine(e)
	}
	return out
}

// ratio is a/b, 0 when b is 0 (a layer the workload did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// engineLayers fills the engine-counter metrics (gridindex, kinetic,
// skyline, roadnet, fleet, wal) from before/after snapshots of every
// engine the workload runs.
func engineLayers(l map[string]float64, before, after []engSnap) {
	var d engSnap
	var fsyncW float64
	for i := range after {
		a, b := after[i], before[i]
		d.reqs += a.reqs - b.reqs
		d.ticks += a.ticks - b.ticks
		d.assigned += a.assigned - b.assigned
		d.stale += a.stale - b.stale
		d.distCalls += a.distCalls - b.distCalls
		d.options += a.options - b.options
		d.verified += a.verified - b.verified
		d.pruned += a.pruned - b.pruned
		d.cells += a.cells - b.cells
		d.width += a.width - b.width
		d.tickMs += a.tickMs - b.tickMs
		d.shardSkew = math.Max(d.shardSkew, a.shardSkew)
		d.walRecords += a.walRecords - b.walRecords
		d.walFsyncs += a.walFsyncs - b.walFsyncs
		d.walBytes += a.walBytes - b.walBytes
		fsyncW += a.fsyncUs * float64(a.walFsyncs)
	}
	n := float64(d.reqs)
	l["core.match_width"] = ratio(d.width, n)
	l["gridindex.cells_per_quote"] = ratio(d.cells, n)
	l["gridindex.pruned_share"] = ratio(d.pruned, d.pruned+d.verified)
	l["kinetic.verified_per_quote"] = ratio(d.verified, n)
	l["skyline.options_per_quote"] = ratio(d.options, n)
	l["roadnet.dist_calls_per_quote"] = ratio(float64(d.distCalls), n)
	l["fleet.step_ms"] = ratio(d.tickMs, float64(d.ticks))
	l["fleet.shard_skew_ms"] = d.shardSkew
	l["fleet.stale_share"] = ratio(float64(d.stale), float64(d.assigned+d.stale))
	l["wal.records_per_fsync"] = ratio(float64(d.walRecords), float64(d.walFsyncs))
	var fsyncs int64
	for _, a := range after {
		fsyncs += a.walFsyncs
	}
	l["wal.fsync_us"] = ratio(fsyncW, float64(fsyncs))
	l["wal.bytes_per_request"] = ratio(float64(d.walBytes), n)
}

// goLayers fills the Go runtime metrics over the measured phase.
func goLayers(l map[string]float64, before, after goCounters, requests int) {
	l["go.allocs_per_request"] = ratio(float64(after.mallocs-before.mallocs), float64(requests))
	l["go.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.cpuT-before.cpuT)
}

// matchLayers times MatchOnce per algorithm over the probe set (the
// exactness check's own calls) and one whole-graph FillDists per probe
// origin.
func matchLayers(l map[string]float64, mt matchTimes, g *roadnet.Graph, ps [][2]roadnet.VertexID) {
	l["core.match_naive_ms"] = median(mt[core.AlgoNaive])
	l["core.match_single_ms"] = median(mt[core.AlgoSingleSide])
	l["core.match_dual_ms"] = median(mt[core.AlgoDualSide])
	s := roadnet.NewSearcher(g)
	out := make([]float64, g.NumVertices())
	var fills []float64
	for _, p := range ps {
		t := time.Now()
		s.FillDists(p[0], math.Inf(1), out)
		fills = append(fills, msSince(t))
	}
	l["roadnet.fill_ms"] = median(fills)
}
