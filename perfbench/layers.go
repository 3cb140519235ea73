package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// schedFamilies are the scheduler families whose hooks are timed.
var schedFamilies = []string{"mcb", "greedy", "batch"}

// layerUnits lists every per-layer metric of a traced run with its unit,
// in BENCHMARK.json order. A layer a workload does not exercise reports 0.
//
// Percentiles come with their sample count (the matching .calls or
// .cells metric). A _p99 metric is the 99th percentile when there are at
// least 1,000 samples, and otherwise the highest percentile with at least
// ten samples above it; its _pct companion says which percentile it is.
func layerUnits() [][2]string {
	u := [][2]string{
		{"campaign.cells", "count"},
		{"campaign.cell_s_p50", "s"},
		{"campaign.cell_s_max", "s"},
		{"campaign.critical_path_frac", "frac"},
		{"campaign.pool_busy_frac", "frac"},
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.self_s", "s"},
		{"sim.self_ns_per_event", "ns"},
	}
	for _, f := range schedFamilies {
		p := "sched." + f
		u = append(u,
			[2]string{p + ".calls", "count"},
			[2]string{p + ".busy_s", "s"},
			[2]string{p + ".call_us_p50", "us"},
			[2]string{p + ".call_us_p99", "us"},
			[2]string{p + ".call_us_p99_pct", "%"},
			[2]string{p + ".jobs_in_system_mean", "count"},
			[2]string{p + ".arrival.calls", "count"},
			[2]string{p + ".completion.calls", "count"},
			[2]string{p + ".timer.calls", "count"},
		)
	}
	return append(u, [][2]string{
		{"core.solve.calls", "count"},
		{"core.solve.us_p50", "us"},
		{"core.solve.us_p99", "us"},
		{"core.solve.us_p99_pct", "%"},
		{"core.solve.jobs_mean", "count"},
		{"core.solve.infeasible_frac", "frac"},
		{"core.first_solve_share", "frac"},
		{"federation.dispatch.calls", "count"},
		{"federation.dispatch.ns_mean", "ns"},
		{"federation.member_busy_s", "s"},
		{"federation.parallelism", "ratio"},
		{"federation.speedup_vs_serial", "ratio"},
		{"federation.jobs_per_member_max_frac", "frac"},
		{"workload.gen_s", "s"},
		{"workload.parse_ns_per_job", "ns"},
		{"process.cpu_s", "s"},
		{"process.alloc_mib", "MiB"},
		{"process.gc_cycles", "count"},
		{"process.gc_pause_ms", "ms"},
		{"trace.overhead_frac", "frac"},
	}...)
}

// tracedFacts are the measurements of a traced run the layer metrics are
// derived from, next to its spans.
type tracedFacts struct {
	s          *session
	workers    int     // campaign pool workers
	events     int     // simulation events of the untraced runs
	dispatched [][]int // per federated run, jobs routed to each member
	wall       float64 // untraced runs, s
	tracedWall float64 // traced runs, s
	serialWall float64 // untraced reruns on the serial federation loop, s; 0 if none
	plain      procStats
	traced     procStats
	gen        float64 // median piece set-up, s
	parseNs    float64 // per job; 0 if the workload parses no trace
}

// layerMetrics derives every per-layer metric.
func layerMetrics(f tracedFacts) map[string]metric {
	v := map[string]float64{}
	spans := func(name string) []span {
		return f.s.byName(func(n string) bool { return n == name })
	}
	hooksOf := func(prefix string) []span {
		return f.s.byName(func(n string) bool { return strings.HasPrefix(n, prefix) })
	}

	cellSpans := spans("campaign.cell")
	cells := durations(cellSpans)
	v["campaign.cells"] = float64(len(cells))
	if campaigns := spans("campaign.run"); len(cells) > 0 && len(campaigns) > 0 {
		v["campaign.cell_s_p50"] = quantile(cells, 0.5)
		v["campaign.cell_s_max"] = cells[len(cells)-1]
		// Per campaign, the longest cell over the campaign's wall time:
		// the share no number of pool workers could shorten.
		crit := 0.0
		for _, c := range campaigns {
			longest := 0.0
			for _, cell := range cellSpans {
				if cell.start >= c.start && cell.end <= c.end {
					longest = math.Max(longest, cell.dur().Seconds())
				}
			}
			crit += longest / c.dur().Seconds()
		}
		v["campaign.critical_path_frac"] = crit / float64(len(campaigns))
		v["campaign.pool_busy_frac"] = sum(cells) / (float64(f.workers) * sum(durations(campaigns)))
	}

	hooks := hooksOf("sched.")
	dispatch := durations(spans("federation.dispatch"))
	var self, memberBusy float64
	if fed := spans("federation.run"); len(fed) > 0 {
		// Members advance concurrently on the federation's workers, out of
		// sight of spans taken from outside, so member busy time is the
		// CPU time spent in Go code during the traced runs, less the
		// dispatcher's share; and the engine's time is the federated
		// runs' wall time during which neither a hook nor the dispatcher
		// ran.
		memberBusy = f.traced.userGo - sum(dispatch)
		self = sum(durations(fed)) - covered(hooks) - sum(dispatch)
	} else {
		// Campaign cells are single simulations.
		self = sum(cells) - sum(durations(hooks))
	}
	v["sim.events"] = float64(f.events)
	v["sim.events_per_s"] = float64(f.events) / f.wall
	v["sim.self_s"] = self
	if f.events > 0 {
		v["sim.self_ns_per_event"] = self * 1e9 / float64(f.events)
	}

	mcbBusy := 0.0
	for _, fam := range schedFamilies {
		p := "sched." + fam
		hs := hooksOf(p + ".")
		us := durations(hs)
		for i := range us {
			us[i] *= 1e6
		}
		v[p+".calls"] = float64(len(us))
		v[p+".busy_s"] = sum(us) / 1e6
		if fam == "mcb" {
			mcbBusy = sum(us) / 1e6
		}
		if len(us) > 0 {
			v[p+".call_us_p50"] = quantile(us, 0.5)
			v[p+".call_us_p99"], v[p+".call_us_p99_pct"] = tail(us)
			jobs := 0.0
			for _, h := range hs {
				jobs += float64(h.arg)
			}
			v[p+".jobs_in_system_mean"] = jobs / float64(len(hs))
		}
		for _, hook := range []string{"arrival", "completion", "timer"} {
			v[p+"."+hook+".calls"] = float64(len(spans(p + "." + hook)))
		}
	}

	solves := spans("core.solve")
	if len(solves) > 0 {
		us := durations(solves)
		for i := range us {
			us[i] *= 1e6
		}
		jobs, infeasible := 0.0, 0.0
		for _, sp := range solves {
			jobs += float64(sp.arg)
			if sp.flag {
				infeasible++
			}
		}
		n := float64(len(solves))
		v["core.solve.calls"] = n
		v["core.solve.us_p50"] = quantile(us, 0.5)
		v["core.solve.us_p99"], v["core.solve.us_p99_pct"] = tail(us)
		v["core.solve.jobs_mean"] = jobs / n
		v["core.solve.infeasible_frac"] = infeasible / n
		if mcbBusy > 0 {
			v["core.first_solve_share"] = sum(us) / 1e6 / mcbBusy
		}
	}

	if len(dispatch) > 0 {
		v["federation.dispatch.calls"] = float64(len(dispatch))
		v["federation.dispatch.ns_mean"] = sum(dispatch) * 1e9 / float64(len(dispatch))
	}
	if memberBusy > 0 {
		v["federation.member_busy_s"] = memberBusy
		v["federation.parallelism"] = memberBusy / f.tracedWall
	}
	if f.serialWall > 0 {
		v["federation.speedup_vs_serial"] = f.serialWall / f.wall
	}
	for _, d := range f.dispatched {
		total, most := 0, 0
		for _, n := range d {
			total += n
			most = max(most, n)
		}
		if total > 0 {
			v["federation.jobs_per_member_max_frac"] = math.Max(v["federation.jobs_per_member_max_frac"], float64(most)/float64(total))
		}
	}

	v["workload.gen_s"] = f.gen
	v["workload.parse_ns_per_job"] = f.parseNs

	v["process.cpu_s"] = f.plain.cpu.Seconds()
	v["process.alloc_mib"] = float64(f.plain.allocs) / (1 << 20)
	v["process.gc_cycles"] = float64(f.plain.gcCycles)
	v["process.gc_pause_ms"] = float64(f.plain.pause) / 1e6

	v["trace.overhead_frac"] = f.tracedWall/f.wall - 1

	out := map[string]metric{}
	for _, nu := range layerUnits() {
		out[nu[0]] = metric{Value: v[nu[0]], Unit: nu[1]}
	}
	return out
}

// covered returns the seconds during which at least one of the spans ran.
func covered(spans []span) float64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total, end int64
	for _, sp := range s {
		switch {
		case sp.start >= end:
			total += sp.end - sp.start
			end = sp.end
		case sp.end > end:
			total += sp.end - end
			end = sp.end
		}
	}
	return time.Duration(total).Seconds()
}

// durations returns the spans' durations in seconds, sorted.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = sp.dur().Seconds()
	}
	sort.Float64s(out)
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// tail returns the 99th percentile of sorted xs when it has at least 1,000
// samples, otherwise the highest percentile with at least ten samples above
// it, together with the percentile quoted (0 when there are ten samples or
// fewer).
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	switch {
	case n >= 1000:
		return quantile(sorted, 0.99), 99
	case n > 10:
		return sorted[n-11], 100 * float64(n-10) / float64(n)
	}
	return 0, 0
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// median of unsorted xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
