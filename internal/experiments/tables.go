package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/campaign"
	"repro/internal/report"
	"repro/internal/stats"
)

// TableIResult reproduces Table I: degradation-factor statistics
// (avg/std/max) per algorithm for the three workload families, all with the
// 5-minute rescheduling penalty.
type TableIResult struct {
	Algorithms []string
	Scaled     map[string]stats.Summary // scaled synthetic traces
	Unscaled   map[string]stats.Summary // unscaled synthetic traces
	RealWorld  map[string]stats.Summary // HPC2N-like weekly traces
}

// TableI runs experiment E3 as PaperGrid's single grid spanning the three
// workload legs: load-scaled synthetic traces, the same traces unscaled,
// and the HPC2N-like weekly segments. The records partition by family and
// load.
func TableI(ctx context.Context, cfg Config) (*TableIResult, error) {
	g, err := PaperGrid("table1", cfg)
	if err != nil {
		return nil, err
	}
	recs, err := cfg.run(ctx, g)
	if err != nil {
		return nil, err
	}
	var scaled, unscaled, real []campaign.Record
	for _, rec := range recs {
		switch {
		case rec.Family == campaign.FamilyHPC2N:
			real = append(real, rec)
		case rec.Load == campaign.Unscaled:
			unscaled = append(unscaled, rec)
		default:
			scaled = append(scaled, rec)
		}
	}
	algs := g.Algorithms
	res := &TableIResult{Algorithms: algs}
	if res.Scaled, err = degradationStats(scaled, algs); err != nil {
		return nil, err
	}
	if res.Unscaled, err = degradationStats(unscaled, algs); err != nil {
		return nil, err
	}
	if res.RealWorld, err = degradationStats(real, algs); err != nil {
		return nil, err
	}
	return res, nil
}

// Table builds Table I in the paper's layout.
func (t *TableIResult) Table() *report.Table {
	tbl := &report.Table{
		Title: "Table I: degradation factor, 5-minute rescheduling penalty",
		Headers: []string{"algorithm",
			"scaled avg", "scaled std", "scaled max",
			"unscaled avg", "unscaled std", "unscaled max",
			"real avg", "real std", "real max"},
	}
	for _, alg := range t.Algorithms {
		s, u, r := t.Scaled[alg], t.Unscaled[alg], t.RealWorld[alg]
		tbl.AddRow(alg,
			f2(s.Mean), f2(s.Std), f2(s.Max),
			f2(u.Mean), f2(u.Std), f2(u.Max),
			f2(r.Mean), f2(r.Std), f2(r.Max))
	}
	return tbl
}

// Render writes Table I as a fixed-width table.
func (t *TableIResult) Render(w io.Writer) error { return t.Table().Render(w) }

// RenderCSV writes Table I as CSV.
func (t *TableIResult) RenderCSV(w io.Writer) error { return t.Table().RenderCSV(w) }

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// TableIIResult reproduces Table II: preemption and migration costs over
// the scaled synthetic traces with load >= 0.7 and the 5-minute penalty.
// Each entry holds the average over instances with the per-trace maximum in
// Max.
type TableIIResult struct {
	Algorithms []string
	// Streams[alg] aggregates the six cost columns per instance:
	// pmtn GB/s, mig GB/s, pmtn/h, mig/h, pmtn/job, mig/job.
	Streams map[string][6]stats.Summary
}

// TableII runs experiment E4 on PaperGrid's grid: the preempting
// algorithms over the high-load scaled traces, aggregating the six cost
// columns directly from the campaign records.
func TableII(ctx context.Context, cfg Config) (*TableIIResult, error) {
	g, err := PaperGrid("table2", cfg)
	if err != nil {
		return nil, err
	}
	recs, err := cfg.run(ctx, g)
	if err != nil {
		return nil, err
	}
	algs := g.Algorithms
	type accum struct{ streams [6]*stats.Stream }
	acc := map[string]*accum{}
	for _, alg := range algs {
		a := &accum{}
		for i := range a.streams {
			a.streams[i] = &stats.Stream{}
		}
		acc[alg] = a
	}
	for _, rec := range recs {
		cols := [6]float64{rec.PmtnGBps, rec.MigGBps, rec.PmtnPerHour, rec.MigPerHour, rec.PmtnPerJob, rec.MigPerJob}
		for k := range cols {
			acc[rec.Algorithm].streams[k].Add(cols[k])
		}
	}
	out := &TableIIResult{Algorithms: algs, Streams: map[string][6]stats.Summary{}}
	for _, alg := range algs {
		var row [6]stats.Summary
		for k := range row {
			row[k] = acc[alg].streams[k].Summary()
		}
		out.Streams[alg] = row
	}
	return out, nil
}

// Table builds Table II in the paper's layout: average values with maxima
// in parentheses.
func (t *TableIIResult) Table() *report.Table {
	tbl := &report.Table{
		Title: "Table II: preemption/migration costs, scaled traces with load >= 0.7, 5-minute penalty",
		Headers: []string{"algorithm",
			"pmtn GB/s", "mig GB/s",
			"pmtn /hour", "mig /hour",
			"pmtn /job", "mig /job"},
	}
	for _, alg := range t.Algorithms {
		row := t.Streams[alg]
		cells := []string{alg}
		for k := 0; k < 6; k++ {
			cells = append(cells, fmt.Sprintf("%.2f (%.2f)", row[k].Mean, row[k].Max))
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// Render writes Table II as a fixed-width table.
func (t *TableIIResult) Render(w io.Writer) error { return t.Table().Render(w) }

// RenderCSV writes Table II as CSV.
func (t *TableIIResult) RenderCSV(w io.Writer) error { return t.Table().RenderCSV(w) }
