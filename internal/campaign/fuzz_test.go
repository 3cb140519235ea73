package campaign

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseGrid checks the round trip dfrs-serve relies on when it
// persists accepted grids and re-reads them on restart: any grid ParseGrid
// accepts re-marshals and re-parses to an equal grid. The body never
// expands cells, since fuzzed counts can be huge.
func FuzzParseGrid(f *testing.F) {
	full := testGrid()
	full.NodeMixes = []string{"uniform", "bimodal"}
	full.GPUFrac, full.GPUCorr = 0.25, -0.5
	full.Objectives = []string{"", "cost"}
	full.Topologies = []string{"2", "uniform:32+bimodal-priced:16"}
	full.Dispatchers = []string{"roundrobin"}
	for _, g := range []*Grid{testGrid(), full} {
		data, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","algorithms":["fcfs"],"families":[{"kind":"lublin","count":1,"loads":[]}],"node_mixes":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not marshal: %v", err)
		}
		g2, err := ParseGrid(again)
		if err != nil {
			t.Fatalf("re-marshalled grid rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("round trip changed the grid:\n%#v\n%#v", g, g2)
		}
	})
}
