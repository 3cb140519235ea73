package main

import (
	"flag"
	"reflect"
	"testing"

	dfrs "repro"
	"repro/internal/experiments"
)

// gridFromArgs builds the grid the command would run for args.
func gridFromArgs(t *testing.T, args ...string) *dfrs.Grid {
	t.Helper()
	fs := flag.NewFlagSet("dfrs-campaign", flag.ContinueOnError)
	gf := defineGridFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	g, err := buildGrid(gf)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return g
}

// TestPresetsMatchPaperGrid pins -preset at the flag defaults to the grid
// dfrs-exp runs at its defaults, so neither side's defaults can drift.
// Name is ignored: no cell key or record carries it.
func TestPresetsMatchPaperGrid(t *testing.T) {
	for _, name := range []string{"fig1a", "fig1b", "table1", "table2"} {
		got := gridFromArgs(t, "-preset", name)
		want, err := experiments.PaperGrid(name, experiments.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got.Name = want.Name
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-preset %s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestTable2KeepsPreemptingAlgorithms(t *testing.T) {
	g := gridFromArgs(t, "-preset", "table2", "-algs", "easy,dynmcb8-per")
	if want := []string{"dynmcb8-per"}; !reflect.DeepEqual(g.Algorithms, want) {
		t.Errorf("algorithms %v, want %v", g.Algorithms, want)
	}
}
