// Package experiments defines the paper's evaluation campaigns (Figure 1,
// Table I, Table II, the Section V timing study) and the ablation studies
// as thin grid definitions over the public campaign API (dfrs.Campaign):
// each experiment declares a campaign.Grid, runs it on the engine's worker
// pool, and aggregates the resulting records into the paper's tables and
// figures. PaperGrid is the one definition of the paper's four campaigns,
// shared with dfrs-campaign -preset. Every experiment takes a context —
// cancellation stops the campaign within one cell per worker — and is
// deterministic given its seed, scaling from quick smoke runs to the
// paper's full 100-trace campaigns via Config.
package experiments

import (
	"context"
	"fmt"
	"slices"

	dfrs "repro"
	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// Algorithms is the paper's nine algorithms in the order of Figure 1's
// legend and Table I's rows.
var Algorithms = []string{
	"fcfs",
	"easy",
	"greedy",
	"greedy-pmtn",
	"greedy-pmtn-migr",
	"dynmcb8",
	"dynmcb8-per",
	"dynmcb8-asap-per",
	"dynmcb8-stretch-per",
}

// PreemptingAlgorithms are the six Table II rows (algorithms that pause or
// migrate).
var PreemptingAlgorithms = []string{
	"greedy-pmtn",
	"greedy-pmtn-migr",
	"dynmcb8",
	"dynmcb8-per",
	"dynmcb8-asap-per",
	"dynmcb8-stretch-per",
}

// PaperPenalty is the 5-minute rescheduling penalty in seconds.
const PaperPenalty = 300.0

// tableIIMinLoad is the paper's load cutoff for Table II.
const tableIIMinLoad = 0.7

// Config sets the scale of an experiment campaign.
type Config struct {
	Seed         uint64
	Traces       int       // number of base synthetic traces (paper: 100)
	JobsPerTrace int       // jobs per synthetic trace (paper: 1000)
	Nodes        int       // cluster size (paper: 128)
	Loads        []float64 // offered-load levels (paper: 0.1..0.9)
	Algorithms   []string
	Workers      int  // parallel simulations; <=0 means GOMAXPROCS
	Check        bool // enable simulator invariant checking
	HPC2NWeeks   int  // weekly segments for the real-world leg (paper: 182)
}

// DefaultConfig returns a laptop-scale campaign that preserves the paper's
// platform (128 nodes, loads 0.1–0.9, all nine algorithms) while keeping
// trace counts small enough for CI; scale Traces/JobsPerTrace up to the
// paper's 100/1000 for the full reproduction.
func DefaultConfig() Config {
	return Config{
		Seed:         42,
		Traces:       3,
		JobsPerTrace: 150,
		Nodes:        128,
		Loads:        []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Algorithms:   Algorithms,
		HPC2NWeeks:   4,
	}
}

// grid translates the config into a campaign grid over the synthetic
// family with the given loads and penalty; pass campaign.Unscaled as the
// only load for unscaled runs.
func (c Config) grid(name string, algs []string, loads []float64, penalty float64) *campaign.Grid {
	return &campaign.Grid{
		Name:         name,
		Seeds:        []uint64{c.Seed},
		Algorithms:   algs,
		Families:     []campaign.Family{{Kind: campaign.FamilyLublin, Count: c.Traces}},
		Loads:        loads,
		Penalties:    []float64{penalty},
		Nodes:        []int{c.Nodes},
		JobsPerTrace: c.JobsPerTrace,
		Check:        c.Check,
	}
}

// PaperGrid returns the grid of one of the paper's four campaigns at the
// config's scale: "fig1a" (Figure 1(a), no penalty), "fig1b" (Figure 1(b),
// the 5-minute penalty), "table1" (Table I's scaled, unscaled and HPC2N
// legs) or "table2" (Table II: the preempting algorithms of
// cfg.Algorithms, in order, on the loads of cfg.Loads >= 0.7). It is the
// one definition behind both dfrs-exp and dfrs-campaign -preset.
func PaperGrid(name string, cfg Config) (*campaign.Grid, error) {
	algs, loads, penalty := cfg.Algorithms, cfg.Loads, PaperPenalty
	var extra []campaign.Family
	switch name {
	case "fig1a":
		penalty = 0
	case "fig1b":
	case "table1":
		unscaled := []float64{campaign.Unscaled}
		extra = []campaign.Family{
			{Kind: campaign.FamilyLublin, Count: cfg.Traces, Loads: unscaled},
			{Kind: campaign.FamilyHPC2N, Count: cfg.HPC2NWeeks, Loads: unscaled}, // real-world stand-in
		}
	case "table2":
		loads = nil
		for _, l := range cfg.Loads {
			if l >= tableIIMinLoad {
				loads = append(loads, l)
			}
		}
		if len(loads) == 0 {
			return nil, fmt.Errorf("experiments: Table II needs load levels >= %.1f", tableIIMinLoad)
		}
		algs = nil
		for _, alg := range cfg.Algorithms {
			if slices.Contains(PreemptingAlgorithms, alg) {
				algs = append(algs, alg)
			}
		}
		if len(algs) == 0 {
			return nil, fmt.Errorf("experiments: Table II needs a preempting algorithm (one of %v)", PreemptingAlgorithms)
		}
	default:
		return nil, fmt.Errorf("experiments: unknown paper campaign %q (want fig1a, fig1b, table1 or table2)", name)
	}
	g := cfg.grid(name, algs, loads, penalty)
	g.Families = append(g.Families, extra...)
	return g, nil
}

// run executes the grid through the public campaign API with the config's
// worker budget; cancelling the context stops within one cell per worker.
func (c Config) run(ctx context.Context, g *campaign.Grid) ([]campaign.Record, error) {
	run, err := dfrs.Campaign(ctx, *g, dfrs.CampaignOptions{Workers: c.Workers})
	if err != nil {
		return nil, err
	}
	return run.Wait()
}

// Instance is the outcome of running a set of algorithms on one trace: the
// per-algorithm maximum bounded stretch, the derived degradation factors,
// and the Table II cost summaries.
type Instance struct {
	Trace       string
	Load        float64
	MaxStretch  map[string]float64
	Degradation map[string]float64
	Costs       map[string]metrics.CostSummary
}

// instancesFromRecords groups flat campaign records by instance (same
// trace, load, penalty — every algorithm ran the identical workload) and
// derives per-instance degradation factors. Records must cover every
// algorithm in algs for every instance.
func instancesFromRecords(recs []campaign.Record, algs []string) ([]*Instance, error) {
	byInstance := map[string]*Instance{}
	var order []string
	for _, rec := range recs {
		key := rec.InstanceKey()
		inst, ok := byInstance[key]
		if !ok {
			inst = &Instance{
				Trace:       rec.Trace,
				Load:        rec.Load,
				MaxStretch:  map[string]float64{},
				Degradation: map[string]float64{},
				Costs:       map[string]metrics.CostSummary{},
			}
			byInstance[key] = inst
			order = append(order, key)
		}
		inst.MaxStretch[rec.Algorithm] = rec.MaxStretch
		inst.Costs[rec.Algorithm] = metrics.CostSummary{
			Algorithm: rec.Algorithm, Trace: rec.Trace,
			PmtnGBps: rec.PmtnGBps, MigGBps: rec.MigGBps,
			PmtnPerHour: rec.PmtnPerHour, MigPerHour: rec.MigPerHour,
			PmtnPerJob: rec.PmtnPerJob, MigPerJob: rec.MigPerJob,
		}
	}
	out := make([]*Instance, 0, len(byInstance))
	for _, key := range order {
		inst := byInstance[key]
		for _, alg := range algs {
			if _, ok := inst.MaxStretch[alg]; !ok {
				return nil, fmt.Errorf("experiments: instance %s missing algorithm %s", key, alg)
			}
		}
		deg, err := metrics.DegradationFactors(inst.MaxStretch)
		if err != nil {
			return nil, err
		}
		inst.Degradation = deg
		out = append(out, inst)
	}
	return out, nil
}

// degradationStats folds a record set into per-algorithm degradation
// statistics, the aggregation behind Table I and the ablations.
func degradationStats(recs []campaign.Record, algs []string) (map[string]stats.Summary, error) {
	instances, err := instancesFromRecords(recs, algs)
	if err != nil {
		return nil, err
	}
	streams := map[string]*stats.Stream{}
	for _, alg := range algs {
		streams[alg] = &stats.Stream{}
	}
	for _, inst := range instances {
		for _, alg := range algs {
			streams[alg].Add(inst.Degradation[alg])
		}
	}
	out := map[string]stats.Summary{}
	for alg, s := range streams {
		out[alg] = s.Summary()
	}
	return out, nil
}
