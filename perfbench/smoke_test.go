package main

import (
	"encoding/json"
	"testing"
)

// TestSmoke runs every workload at its tiny size, untraced and traced,
// and requires every check to pass, no operation to fail, and every
// metric of BENCHMARK.json's lists to print (end-to-end ones non-zero).
func TestSmoke(t *testing.T) {
	for wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := &config{workload: wl, seed: 7, seconds: 0.4, trace: traced, tiny: true, out: t.TempDir()}
				line, err := run(cfg)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				var out struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("trace=%v: result line %q: %v", traced, line, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, out.Correct, out.Attempted, out.Failed)
				}
				defs := e2eMetrics
				if traced {
					defs = layerMetrics
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s missing", traced, d.name)
					case m.Unit != d.unit:
						t.Errorf("trace=%v: metric %s unit %q, want %q", traced, d.name, m.Unit, d.unit)
					case !traced && m.Value <= 0:
						t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}
