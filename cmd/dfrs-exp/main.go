// Command dfrs-exp regenerates the paper's tables and figures (and the
// ablation studies) at a configurable scale.
//
// Usage:
//
//	dfrs-exp -exp fig1a                 # Figure 1(a): no penalty
//	dfrs-exp -exp fig1b                 # Figure 1(b): 5-minute penalty
//	dfrs-exp -exp table1                # Table I
//	dfrs-exp -exp table2                # Table II
//	dfrs-exp -exp timing                # Section V timing study
//	dfrs-exp -exp priority|period|packer|fairness   # ablations A1-A4
//	dfrs-exp -exp all
//
// Scale flags: -traces, -jobs, -nodes, -weeks; the paper's full campaign is
// -traces 100 -jobs 1000 -weeks 182 (CPU-hours). Defaults are a small but
// representative slice. fig1a, fig1b, table1 and table2 run
// experiments.PaperGrid, the same grids as dfrs-campaign -preset: -loads
// sets their load levels (table2 keeps those >= 0.7) and table2 runs the
// six preempting algorithms.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig1a, fig1b, table1, table2, timing, priority, period, packer, fairness, heterogeneity, all")
		seed    = flag.Uint64("seed", 42, "campaign seed")
		traces  = flag.Int("traces", 3, "number of base synthetic traces (paper: 100)")
		jobs    = flag.Int("jobs", 150, "jobs per synthetic trace (paper: 1000)")
		nodes   = flag.Int("nodes", 128, "cluster size (paper: 128)")
		weeks   = flag.Int("weeks", 4, "HPC2N-like weekly segments for Table I (paper: 182)")
		workers = flag.Int("workers", 0, "parallel simulations (0 = all cores)")
		loads   = flag.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "comma-separated load levels")
		check   = flag.Bool("check", false, "enable per-event simulator invariant checking")
		csv     = flag.Bool("csv", false, "emit CSV instead of fixed-width tables")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Traces = *traces
	cfg.JobsPerTrace = *jobs
	cfg.Nodes = *nodes
	cfg.HPC2NWeeks = *weeks
	cfg.Workers = *workers
	cfg.Check = *check
	var err error
	cfg.Loads, err = parseLoads(*loads)
	if err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM cancels the campaign context: the engine stops within
	// one cell per worker and the command exits cleanly.
	ctx, stop := cli.SignalContext()
	defer stop()
	run := func(name string) {
		if err := dispatch(ctx, name, cfg, *csv); err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "dfrs-exp: interrupted")
				os.Exit(1)
			}
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	if *exp == "all" {
		for _, name := range []string{"fig1a", "fig1b", "table1", "table2", "timing", "priority", "period", "packer", "fairness", "heterogeneity"} {
			run(name)
			fmt.Println()
		}
		return
	}
	run(*exp)
}

// renderable is any experiment result that can print itself as a
// fixed-width table or as CSV.
type renderable interface {
	Render(io.Writer) error
	RenderCSV(io.Writer) error
}

func dispatch(ctx context.Context, name string, cfg experiments.Config, csv bool) error {
	var res renderable
	var err error
	switch name {
	case "fig1a", "fig1b":
		res, err = experiments.Figure1(ctx, cfg, name)
	case "table1":
		res, err = experiments.TableI(ctx, cfg)
	case "table2":
		res, err = experiments.TableII(ctx, cfg)
	case "timing":
		res, err = experiments.TimingStudy(ctx, cfg, "dynmcb8")
	case "priority":
		res, err = experiments.AblationPriorityPower(ctx, cfg)
	case "period":
		res, err = experiments.AblationPeriod(ctx, cfg)
	case "packer":
		res, err = experiments.AblationPacker(ctx, cfg)
	case "fairness":
		res, err = experiments.ExtensionFairness(ctx, cfg)
	case "heterogeneity":
		res, err = experiments.HeterogeneityStudy(ctx, cfg)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return err
	}
	if csv {
		return res.RenderCSV(os.Stdout)
	}
	return res.Render(os.Stdout)
}

func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 || v > 1 {
			return nil, fmt.Errorf("invalid load %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no load levels given")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dfrs-exp:", err)
	os.Exit(1)
}
