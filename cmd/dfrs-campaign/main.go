// Command dfrs-campaign runs a declarative scenario grid — algorithms x
// workload families x loads x seeds x penalties x cluster sizes — through
// the public campaign API (dfrs.Campaign), streaming one JSONL record per
// finished simulation. Output is checkpointed: interrupting a campaign
// (including with SIGINT/SIGTERM, which cancels the run context, finishes
// within one cell per worker and flushes the file) and re-running with
// -resume completes only the missing cells.
//
// Presets reproduce the paper's campaigns:
//
//	dfrs-campaign -preset fig1a  -out fig1a.jsonl      # Figure 1(a): no penalty
//	dfrs-campaign -preset fig1b  -out fig1b.jsonl      # Figure 1(b): 5-minute penalty
//	dfrs-campaign -preset table1 -out table1.jsonl     # Table I's three workload legs
//	dfrs-campaign -preset table2 -out table2.jsonl     # Table II's high-load cost study
//
// A preset is experiments.PaperGrid, the grid dfrs-exp runs, built from
// -algs, -traces, -jobs, -loads and -weeks: the preset fixes the penalty
// (-penalties is ignored), table2 keeps the preempting algorithms of -algs
// and the loads >= 0.7, and table1 runs -weeks HPC2N-like segments (4 when
// -weeks is 0). The sweep axes -seeds, -nodes, -node-mix, -gpu-frac,
// -gpu-corr, -objective, -clusters and -dispatch apply on top, and for
// every other preset -weeks adds an HPC2N-like family as it does for a
// custom grid.
//
// Or declare a custom grid directly:
//
//	dfrs-campaign -algs easy,dynmcb8-asap-per -seeds 1,2,3 -traces 10 \
//	    -loads 0.5,0.7,0.9 -penalties 0,300 -workers 8 -out sweep.jsonl
//
// Heterogeneous platforms are a grid axis: -node-mix sweeps named node-mix
// profiles (uniform, bimodal, powerlaw), e.g.
//
//	dfrs-campaign -node-mix uniform,bimodal -loads 0.7 -out het.jsonl
//
// The paper's full scale is -traces 100 -jobs 1000 -weeks 182 (CPU-hours);
// defaults are a small representative slice. Records sort by their "key"
// field into a canonical order that is byte-identical for any -workers
// value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	dfrs "repro"
	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	gf := defineGridFlags(flag.CommandLine)
	var (
		resources = flag.String("resources", "", "@file node inventory (one capacity vector per line, optional cost= field), registered as a node mix and added to the sweep")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = all cores)")
		fedWork   = flag.Int("fed-workers", 0, "goroutines advancing each federated cell's member clusters concurrently (0 = serial per cell, the default — the cell pool owns the cores); output JSONL is byte-identical for any value")
		out       = flag.String("out", "-", "output JSONL path (- = stdout)")
		resume    = flag.Bool("resume", false, "skip cells already present in -out and append the rest")
		check     = flag.Bool("check", false, "enable per-event simulator invariant checking")
		timing    = flag.Bool("timing", false, "record wall-clock scheduler timing aggregates (nondeterministic)")
		quiet     = flag.Bool("q", false, "suppress progress output on stderr")
	)
	flag.Parse()

	// -resources @file loads an explicit node inventory, registers it under
	// the "@file" name and adds it to the node-mix sweep.
	if *resources != "" {
		if !strings.HasPrefix(*resources, "@") {
			fatal(fmt.Errorf("bad -resources: want @file (a node-inventory path), got %q", *resources))
		}
		path := strings.TrimPrefix(*resources, "@")
		f, err := os.Open(path)
		if err != nil {
			fatal(fmt.Errorf("bad -resources: %v", err))
		}
		_, err = dfrs.LoadNodeMix(*resources, f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("bad -resources: %s: %v", path, err))
		}
		if gf.nodeMix == "" {
			gf.nodeMix = *resources
		} else {
			gf.nodeMix += "," + *resources
		}
	}

	g, err := buildGrid(gf)
	if err != nil {
		fatal(err)
	}
	g.Check = *check
	g.Timing = *timing

	if *fedWork < 0 {
		fatal(fmt.Errorf("bad -fed-workers: negative worker count %d", *fedWork))
	}
	if *fedWork != 0 && gf.clusters == "" {
		fatal(fmt.Errorf("bad -fed-workers: requires -clusters"))
	}
	opt := dfrs.CampaignOptions{Workers: *workers, FedWorkers: *fedWork}
	if !*quiet {
		opt.Progress = func(done, total int, rec dfrs.CampaignRecord) {
			fmt.Fprintf(os.Stderr, "dfrs-campaign: [%d/%d] %s\n", done, total, rec.Key)
		}
	}
	switch {
	case *out == "-" && *resume:
		fatal(fmt.Errorf("-resume requires -out pointing at a file"))
	case *out == "-":
		opt.Output = os.Stdout
	default:
		opt.Checkpoint = *out
		opt.Resume = *resume
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	run, err := dfrs.Campaign(ctx, *g, opt)
	if err != nil {
		fatal(err)
	}
	recs, err := run.Wait()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr,
				"dfrs-campaign: interrupted after %d cells; checkpoint flushed, re-run with -resume to finish\n",
				len(recs))
			os.Exit(1)
		}
		fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "dfrs-campaign: %d cells finished (%d already checkpointed)\n",
			len(recs), run.Skipped())
	}
}

// gridFlags holds the flags that declare the campaign grid.
type gridFlags struct {
	preset, algs, seeds              string
	traces, jobs, weeks              int
	nodes, nodeMix, loads, penalties string
	gpuFrac, gpuCorr                 float64
	objectives, clusters, dispatch   string
}

// defineGridFlags declares the grid flags on fs.
func defineGridFlags(fs *flag.FlagSet) *gridFlags {
	f := &gridFlags{}
	fs.StringVar(&f.preset, "preset", "", "paper campaign: fig1a, fig1b, table1, table2 (empty = custom grid from flags)")
	fs.StringVar(&f.algs, "algs", strings.Join(experiments.Algorithms, ","), "comma-separated algorithm names")
	fs.StringVar(&f.seeds, "seeds", "42", "comma-separated campaign seeds")
	fs.IntVar(&f.traces, "traces", 3, "synthetic traces per seed (paper: 100)")
	fs.IntVar(&f.jobs, "jobs", 150, "jobs per synthetic trace (paper: 1000)")
	fs.StringVar(&f.nodes, "nodes", "128", "comma-separated cluster sizes (paper: 128)")
	fs.StringVar(&f.nodeMix, "node-mix", "", "comma-separated node-mix profiles (uniform, bimodal, bimodal-priced, powerlaw, gpu-uniform, gpu-bimodal); empty = homogeneous")
	fs.StringVar(&f.objectives, "objective", "", "comma-separated placement objectives to sweep (cost, bestfit, worstfit, ...); empty = each family's default rule")
	fs.Float64Var(&f.gpuFrac, "gpu-frac", 0, "fraction of each cell's jobs given a GPU demand (adds a third resource dimension)")
	fs.Float64Var(&f.gpuCorr, "gpu-corr", 0, "correlation of GPU demands with memory requirements, in [-1,1] (requires -gpu-frac; 0 = independent draws)")
	fs.StringVar(&f.clusters, "clusters", "", "comma-separated federation topologies to sweep (a count like 2, or mix:nodes terms joined by +, e.g. uniform:128+bimodal-priced:64); empty = single-cluster cells")
	fs.StringVar(&f.dispatch, "dispatch", "", "comma-separated federation dispatch policies crossed with -clusters (see dfrs.Dispatchers); empty = "+dfrs.DefaultDispatcher)
	fs.StringVar(&f.loads, "loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "comma-separated load levels; 0 means unscaled")
	fs.StringVar(&f.penalties, "penalties", "300", "comma-separated rescheduling penalties in seconds (ignored by -preset)")
	fs.IntVar(&f.weeks, "weeks", 0, "HPC2N-like weekly segments to add as a second family (0 = none, or 4 for -preset table1; paper: 182)")
	return f
}

// buildGrid assembles the campaign grid from the preset (the paper
// campaign experiments.PaperGrid defines, at the flags' scale) or the
// custom grid flags, then lays the sweep axes on top. The grid is
// validated eagerly so a bad sweep fails with a clear message before any
// cell runs.
func buildGrid(f *gridFlags) (*dfrs.Grid, error) {
	seedList, err := parseList(f.seeds, parseUint)
	if err != nil {
		return nil, fmt.Errorf("bad -seeds: %w", err)
	}
	if f.traces <= 0 {
		return nil, fmt.Errorf("bad -traces: %d traces per seed, want at least 1", f.traces)
	}
	if f.jobs <= 0 {
		return nil, fmt.Errorf("bad -jobs: %d jobs per trace, want at least 1", f.jobs)
	}
	if f.weeks < 0 {
		return nil, fmt.Errorf("bad -weeks: negative segment count %d", f.weeks)
	}
	nodeList, err := parseList(f.nodes, strconv.Atoi)
	if err != nil {
		return nil, fmt.Errorf("bad -nodes: %w", err)
	}
	loadList, err := parseList(f.loads, parseFloat)
	if err != nil {
		return nil, fmt.Errorf("bad -loads: %w", err)
	}
	penList, err := parseList(f.penalties, parseFloat)
	if err != nil {
		return nil, fmt.Errorf("bad -penalties: %w", err)
	}
	g := &dfrs.Grid{
		Name:         "custom",
		Algorithms:   splitList(f.algs),
		Families:     []dfrs.CampaignFamily{{Kind: dfrs.FamilyLublin, Count: f.traces}},
		Loads:        loadList,
		Penalties:    penList,
		JobsPerTrace: f.jobs,
	}
	if f.preset != "" {
		cfg := experiments.DefaultConfig()
		cfg.Traces, cfg.JobsPerTrace = f.traces, f.jobs
		cfg.Loads, cfg.Algorithms = loadList, g.Algorithms
		if f.weeks > 0 {
			cfg.HPC2NWeeks = f.weeks
		}
		if g, err = experiments.PaperGrid(f.preset, cfg); err != nil {
			return nil, err
		}
	}
	if f.weeks > 0 && f.preset != "table1" {
		g.Families = append(g.Families,
			dfrs.CampaignFamily{Kind: dfrs.FamilyHPC2N, Count: f.weeks, Loads: []float64{dfrs.UnscaledLoad}})
	}
	g.Seeds, g.Nodes = seedList, nodeList
	g.NodeMixes, g.Objectives = splitList(f.nodeMix), splitList(f.objectives)
	g.GPUFrac, g.GPUCorr = f.gpuFrac, f.gpuCorr
	g.Topologies, g.Dispatchers = splitList(f.clusters), splitList(f.dispatch)
	return g, g.Validate()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseList parses each comma-separated entry of s with parse.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range splitList(s) {
		v, err := parse(part)
		if err != nil {
			return nil, fmt.Errorf("invalid value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseUint(s string) (uint64, error)   { return strconv.ParseUint(s, 10, 64) }
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfrs-campaign:", err)
	os.Exit(1)
}
