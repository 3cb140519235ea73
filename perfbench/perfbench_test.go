package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	dfrs "repro"
	"repro/internal/federation"
	"repro/internal/sched"
	"repro/internal/sim"
)

// withSession registers the wrappers and makes a fresh session active for
// the test, so DYNMCB8 wrappers take snapshots as in a traced run.
func withSession(t *testing.T, algs, disps []string) *session {
	t.Helper()
	if err := registerWrappers(algs, disps); err != nil {
		t.Fatal(err)
	}
	s := newSession()
	setActive(s)
	t.Cleanup(func() { setActive(nil) })
	return s
}

func smallTrace(t *testing.T, seed uint64, jobs int, gpuFrac float64) dfrs.Trace {
	t.Helper()
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: seed, Nodes: 32, Jobs: jobs, GPUFrac: gpuFrac})
	if err != nil {
		t.Fatal(err)
	}
	tr, err = tr.ScaleToLoad(0.8)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runBytes is everything a run reports, as JSON.
func runBytes(t *testing.T, tr dfrs.Trace, alg string) []byte {
	t.Helper()
	res, err := dfrs.Run(context.Background(), tr, alg, dfrs.WithPenalty(300), dfrs.WithTimeline())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(map[string]any{
		"name": res.Algorithm(), "makespan": res.Makespan(), "events": res.Events(),
		"preemptions": res.Preemptions(), "migrations": res.Migrations(),
		"jobs": res.Jobs(), "timeline": res.Timeline(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestForwardingSchedulerIdentical(t *testing.T) {
	algs := []string{"easy", "dynmcb8-asap-per", "dynmcb8", "dynmcb8-stretch-per"}
	s := withSession(t, algs, nil)
	tr := smallTrace(t, 3, 120, 0)
	for _, alg := range algs {
		if got, want := runBytes(t, tr, traced(alg)), runBytes(t, tr, alg); string(got) != string(want) {
			t.Errorf("%s: forwarding scheduler changed the run", alg)
		}
	}
	if len(s.takeSnapshots()) == 0 {
		t.Error("DYNMCB8 wrappers recorded no snapshots")
	}
}

func TestForwardingSchedulerCapacityChecker(t *testing.T) {
	for _, alg := range []string{"easy", "fcfs", "dynmcb8-asap-per", "greedy-pmtn"} {
		inner, err := newForwardingScheduler(alg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sched.New(alg)
		if err != nil {
			t.Fatal(err)
		}
		_, wrapped := inner.(sim.CapacityChecker)
		_, native := ref.(sim.CapacityChecker)
		if wrapped != native {
			t.Errorf("%s: wrapper CapacityChecker %v, scheduler %v", alg, wrapped, native)
		}
		if inner.Name() != ref.Name() {
			t.Errorf("%s: wrapper name %q, scheduler %q", alg, inner.Name(), ref.Name())
		}
	}
}

func TestForwardingDispatcherIdentical(t *testing.T) {
	withSession(t, []string{"easy"}, []string{"queuedepth", "roundrobin"})
	tr := smallTrace(t, 5, 400, 0)
	run := func(disp string) []byte {
		spec := dfrs.FederationSpec{Dispatcher: disp, Algorithm: "easy", Workers: 2,
			Clusters: []dfrs.ClusterSpec{{Nodes: 32}, {Nodes: 32}, {Nodes: 32}}}
		tr, err := tr.ScaleToLoad(3 * 0.8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dfrs.RunFederated(context.Background(), tr, spec)
		if err != nil {
			t.Fatal(err)
		}
		var members []dfrs.FederatedClusterResult
		for i := 0; i < res.Clusters(); i++ {
			members = append(members, res.Cluster(i))
		}
		b, err := json.Marshal(map[string]any{"members": members, "jobs": res.Jobs(), "dispatcher": res.Dispatcher()})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(run(traced("queuedepth"))) != string(run("queuedepth")) {
		t.Error("forwarding dispatcher changed the queuedepth run")
	}
}

func TestForwardingDispatcherStateless(t *testing.T) {
	s := newSession()
	for name, want := range map[string]bool{"queuedepth": false, "costaware": false, "roundrobin": true} {
		d, err := newForwardingDispatcher(name, s)
		if err != nil {
			t.Fatal(err)
		}
		sl, ok := d.(federation.StatelessDispatcher)
		if got := ok && sl.Stateless(); got != want {
			t.Errorf("%s: wrapper stateless %v, want %v", name, got, want)
		}
	}
}

func smallTableI(t *testing.T, seed uint64) *tableIInstance {
	t.Helper()
	in, err := tableIPiece(seed, 40, []float64{0.7})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPerturbedRecordFailsCheck(t *testing.T) {
	in := smallTableI(t, 9)
	run, err := dfrs.Campaign(context.Background(), in.grid, dfrs.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	good := tableIOutcome(recs, in.grid, in.cells)
	if len(good.problems) != 0 {
		t.Fatalf("unperturbed records fail: %v", good.problems)
	}

	shifted := append([]dfrs.CampaignRecord(nil), recs...)
	shifted[3].AvgStretch *= 1.0001
	bad := tableIOutcome(shifted, in.grid, in.cells)
	if bad.digest == good.digest {
		t.Error("a perturbed stretch leaves the digest unchanged")
	}
	saved := referenceDigests["tablei"]
	referenceDigests["tablei"] = digestOf([]string{good.digest})
	defer func() { referenceDigests["tablei"] = saved }()
	if len(checkReference("tablei", []string{good.digest})) != 0 {
		t.Error("the unperturbed records fail the reference check")
	}
	if len(checkReference("tablei", []string{bad.digest})) == 0 {
		t.Error("a perturbed record passes the reference check")
	}

	lost := append([]dfrs.CampaignRecord(nil), recs...)
	lost[0].Finished--
	if o := tableIOutcome(lost, in.grid, in.cells); len(o.problems) == 0 {
		t.Error("a record missing a finished job passes the structural check")
	}
}

func TestTracedRunIdentical(t *testing.T) {
	ctx := context.Background()
	easy, err := fedEasy(11, 300)
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := fedGPU(11, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if err := registerWrappers(w.algs, w.disps); err != nil {
			t.Fatal(err)
		}
	}
	for name, p := range map[string]piece{"tablei": smallTableI(t, 11), "fed-easy": easy, "fed-gpu": gpu} {
		plain, err := p.run(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newSession()
		setActive(s)
		tracedRes, err := p.run(ctx, s)
		setActive(nil)
		if err != nil {
			t.Fatal(err)
		}
		a, b := plain(), tracedRes()
		if a.digest != b.digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, b.digest, a.digest)
		}
		if len(a.problems) != 0 {
			t.Errorf("%s: %v", name, a.problems)
		}
		if len(s.byName(func(n string) bool { return strings.HasPrefix(n, "sched.") })) == 0 {
			t.Errorf("%s: no hook spans recorded", name)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 1980 || p != 99 {
		t.Errorf("tail of 2000 = %v at %v%%", v, p)
	}
	if v, p := tail(xs[:100]); v != 90 || p != 90 {
		t.Errorf("tail of 100 = %v at %v%%", v, p)
	}
	if _, p := tail(xs[:10]); p != 0 {
		t.Errorf("tail of 10 quotes the %v%% percentile", p)
	}
}

// TestBenchmarkFile keeps BENCHMARK.json in step with the program: the
// same workloads, end-to-end metrics and per-layer metrics, with the same
// units.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	var layers [][2]string
	for _, m := range b.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(layers, layerUnits()) {
		t.Errorf("BENCHMARK.json per_layer differs from layerUnits()")
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if want := endToEndUnits(); !reflect.DeepEqual(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, want)
	}
}
