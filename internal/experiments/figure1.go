package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/stats"
)

// Figure1Result holds the Figure 1 curves: for each algorithm, the average
// degradation factor at each load level.
type Figure1Result struct {
	Penalty    float64
	Loads      []float64
	Algorithms []string
	// Mean[alg][i] is the average degradation factor at Loads[i].
	Mean map[string][]float64
	// Summary[alg][i] carries the full per-load statistics.
	Summary   map[string][]stats.Summary
	Instances []*Instance
}

// Figure1 runs experiment E1 ("fig1a", penalty 0) or E2 ("fig1b", the
// 5-minute penalty): every configured algorithm over every scaled
// synthetic trace, averaging degradation factors per load level. The
// campaign is PaperGrid's grid — algorithms x traces x loads — on the
// campaign engine.
func Figure1(ctx context.Context, cfg Config, name string) (*Figure1Result, error) {
	if name != "fig1a" && name != "fig1b" {
		return nil, fmt.Errorf("experiments: %q is not a Figure 1 campaign (want fig1a or fig1b)", name)
	}
	g, err := PaperGrid(name, cfg)
	if err != nil {
		return nil, err
	}
	recs, err := cfg.run(ctx, g)
	if err != nil {
		return nil, err
	}
	instances, err := instancesFromRecords(recs, g.Algorithms)
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		Penalty:    g.Penalties[0],
		Loads:      g.Loads,
		Algorithms: g.Algorithms,
		Mean:       map[string][]float64{},
		Summary:    map[string][]stats.Summary{},
		Instances:  instances,
	}
	for _, alg := range g.Algorithms {
		res.Mean[alg] = make([]float64, len(g.Loads))
		res.Summary[alg] = make([]stats.Summary, len(g.Loads))
		for li, load := range g.Loads {
			var s stats.Stream
			for _, inst := range instances {
				if inst.Load == load {
					s.Add(inst.Degradation[alg])
				}
			}
			res.Mean[alg][li] = s.Mean()
			res.Summary[alg][li] = s.Summary()
		}
	}
	return res, nil
}

// Table builds the Figure 1 data table.
func (r *Figure1Result) Table() *report.Table {
	tbl := &report.Table{
		Title:   fmt.Sprintf("Figure 1: average degradation factor vs load (penalty %.0fs)", r.Penalty),
		Headers: append([]string{"algorithm"}, loadHeaders(r.Loads)...),
	}
	for _, alg := range r.Algorithms {
		row := []string{alg}
		for li := range r.Loads {
			row = append(row, fmt.Sprintf("%.2f", r.Mean[alg][li]))
		}
		tbl.AddRow(row...)
	}
	return tbl
}

// RenderCSV writes the Figure 1 data as CSV.
func (r *Figure1Result) RenderCSV(w io.Writer) error { return r.Table().RenderCSV(w) }

// Render writes the Figure 1 data as a table plus an ASCII log-scale chart
// matching the paper's presentation.
func (r *Figure1Result) Render(w io.Writer) error {
	if err := r.Table().Render(w); err != nil {
		return err
	}
	chart := &report.Chart{
		Title:  "degradation factor vs load",
		XLabel: "load",
		YLabel: "avg degradation factor",
		LogY:   true,
	}
	for _, alg := range r.Algorithms {
		s := report.Series{Label: alg}
		for li, load := range r.Loads {
			s.Points = append(s.Points, report.Point{X: load, Y: r.Mean[alg][li]})
		}
		chart.Series = append(chart.Series, s)
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	return chart.Render(w)
}

func loadHeaders(loads []float64) []string {
	hs := make([]string, len(loads))
	for i, l := range loads {
		hs[i] = fmt.Sprintf("%.1f", l)
	}
	return hs
}
