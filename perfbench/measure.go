package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// samples collects latencies in milliseconds. Safe for concurrent use.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(ms float64) {
	s.mu.Lock()
	s.v = append(s.v, ms)
	s.mu.Unlock()
}

func (s *samples) since(t time.Time) { s.add(msSince(t)) }

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the q-quantile by nearest rank (NaN when empty).
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	v := append([]float64(nil), s.v...)
	s.mu.Unlock()
	return quantile(v, q)
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// Outcomes of one operation. A refusal is a typed answer that is
// correct under concurrency (no option, a stale candidate, a relay leg
// at its pending-point cap); a failure is anything else.
const (
	okOutcome = iota
	refused
	failed
)

// opCounts tallies operations per kind.
type opCounts struct {
	mu    sync.Mutex
	kinds []string
	m     map[string]*[3]int64
	// why keeps one message per failure reason for the report.
	why map[string]int
}

func newOpCounts() *opCounts {
	return &opCounts{m: map[string]*[3]int64{}, why: map[string]int{}}
}

func (c *opCounts) note(kind string, outcome int, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.m[kind]
	if !ok {
		row = new([3]int64)
		c.m[kind] = row
		c.kinds = append(c.kinds, kind)
	}
	row[outcome]++
	if outcome != okOutcome {
		c.why[kind+": "+reason]++
	}
}

// classify maps an operation error onto refused or failed. Refusals
// are matched by message because the program types only some of them;
// over HTTP the message is the error envelope's.
func classify(err error) (int, string) {
	msg := err.Error()
	for _, r := range []string{"stale candidate", "pending-point cap"} {
		if strings.Contains(msg, r) {
			return refused, r
		}
	}
	return failed, msg
}

// phase routes operation outcomes: in the measured phase into the
// operation table; during set-up (ops nil) only failures, which become
// violations because a warm-up that failed would measure a broken
// system.
type phase struct {
	ops *opCounts
	ck  *checker
}

func (p phase) note(kind string, outcome int, why string) {
	if p.ops != nil {
		p.ops.note(kind, outcome, why)
	} else if outcome == failed {
		p.ck.failf("warm-up %s: %s", kind, why)
	}
}

func (p phase) noteErr(kind string, err error) {
	if err == nil {
		p.note(kind, okOutcome, "")
		return
	}
	o, why := classify(err)
	p.note(kind, o, why)
}

func (c *opCounts) totals() (attempted, failedN int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, row := range c.m {
		attempted += row[0] + row[1] + row[2]
		failedN += row[2]
	}
	return
}

func (c *opCounts) print(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(w, "%-14s %10s %10s %10s\n", "operation", "attempted", "refused", "failed")
	for _, k := range c.kinds {
		row := c.m[k]
		fmt.Fprintf(w, "%-14s %10d %10d %10d\n", k, row[0]+row[1]+row[2], row[1], row[2])
	}
	reasons := make([]string, 0, len(c.why))
	for r := range c.why {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "  %6d × %s\n", c.why[r], r)
	}
}

// peakRSSMB reads the process's resident-set high-water mark. The
// workloads read it when their set-ups end: set-up and warm-up are a
// fixed amount of work, whereas the measured phase answers as many
// requests as the program's speed allows and the ledger grows with
// them, so a later reading would score a faster program as a memory
// regression.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// goCounters snapshots the runtime counters the go.* layer metrics
// are deltas of.
type goCounters struct {
	mallocs     uint64
	gcCPU, cpuT float64
}

func readGoCounters() goCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.cpuT = s[2].Value.Float64()
	}
	return g
}

// settle collects garbage between set-ups so one instance's heap does
// not inflate the next instance's timings or the RSS high-water mark.
func settle() { runtime.GC() }

// windows measures closed-loop throughput robustly: rounds are grouped
// into consecutive windows of at least one second of round time, and
// the rate is the median of the windows' rates, so a burst of
// interference on a shared host moves at most the windows it hits.
type windows struct {
	rates  []float64
	n      int
	wallMs float64
}

func (w *windows) add(requests int, roundMs float64) {
	w.n += requests
	w.wallMs += roundMs
	if w.wallMs >= 1000 {
		w.rates = append(w.rates, float64(w.n)/(w.wallMs/1e3))
		w.n, w.wallMs = 0, 0
	}
}

// median is the median window rate; a run shorter than one window
// reports its overall rate.
func (w *windows) median() float64 {
	if len(w.rates) == 0 {
		return float64(w.n) / (w.wallMs / 1e3)
	}
	return median(w.rates)
}

// cpuSteal reads the host's cumulative steal and total CPU jiffies;
// the run record reports the steal share over the run, the time the
// hypervisor gave this machine's CPUs to others.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// processCPUms is the CPU time (user + system) the process has used, in
// ms. Unlike wall time it does not grow while the hypervisor hands the
// host's CPUs to other tenants (steal), which on a shared host moves
// wall-clock figures by tens of percent from one minute to the next.
func processCPUms() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}
