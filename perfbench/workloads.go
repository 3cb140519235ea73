package main

import (
	"context"
	"fmt"

	dfrs "repro"
)

// A workload's input is a batch of independent pieces drawn from the seed,
// each a complete problem of the workload's stated size that is set up,
// run and checked on its own. How long one schedule takes depends on the
// backlog its trace happens to build up, which varies several-fold between
// traces (piece times spread over a factor of 3-5 within every workload);
// so wall_s is the geometric mean over many pieces, not the time of one big
// input, and it varies little from seed to seed.
//
// Node counts, loads and algorithms are fixed by what each workload is
// for. Job counts are sized so that a piece takes about half a second on a
// 2-core host. Pieces run until the time budget is spent and at least the
// workload's minPieces have run; minPieces is set, from the spread of piece
// times measured on that host, so that the choice of seed moves the
// geometric mean of a run by a few percent. The host's own run-to-run noise
// comes on top: on a shared 2-core host, one seed's runs differed by up to
// 20%.
const (
	tableIJobs    = 100 // jobs per synthetic trace, as in BenchmarkTableI
	tableIWorkers = 2

	fedEasyJobs = 20000
	fedGPUJobs  = 1200

	fedWorkers = 2
	memberLoad = 0.8
)

// refPieces is how many pieces the reference digest covers.
const refPieces = 8

// warmSeed seeds the small fixed input each run warms its code paths with
// before the first piece.
const warmSeed = 1

// pieceSeed derives the seed of piece i; piece 0 uses the seed itself.
// The piece index goes into the high bits: the generators seed their state
// words with splitmix64, whose increment is the golden-ratio constant, so
// seeds that differ by multiples of it would share state words.
func pieceSeed(seed uint64, i int) uint64 { return seed ^ uint64(i)<<32 }

// bench is one named workload.
type bench struct {
	name string
	// why records what the workload exercises and what it bypasses.
	why string
	// algs and disps are the registry names a traced run wraps.
	algs, disps []string
	// minPieces is how many pieces every timed run completes, whatever its
	// time budget.
	minPieces int
	// prepare sets up piece i of the seed's batch: generates and encodes
	// its traces, resolves names, validates. warm prepares the small
	// fixed warm-up piece.
	prepare func(seed uint64, i int) (piece, error)
	warm    func() (piece, error)
}

// piece is one prepared problem, ready to run any number of times.
type piece interface {
	// run solves the problem once. With a session it runs through the
	// forwarding wrappers and records spans. The returned function
	// computes the outcome; it is called after the timed section.
	run(ctx context.Context, s *session) (func() *outcome, error)
}

// workloads are the benchmark's workloads, in the order of BENCHMARK.json.
//
// Which layer each one exercises, and which end-to-end metric a change to
// that layer should move (per-layer metric names in layers.go):
//
//	campaign pool (campaign.*)          wall_s on tablei
//	event engine (sim.*)                wall_s on fed-easy
//	DYNMCB8 family (sched.mcb.*)        wall_s on tablei, fed-gpu
//	greedy family (sched.greedy.*)      wall_s on tablei
//	batch family (sched.batch.*)        wall_s on fed-easy, tablei
//	allocator (core.*)                  wall_s on tablei, fed-gpu; no change
//	                                    on fed-easy
//	federation (federation.*)           wall_s on fed-easy, fed-gpu
//	trace generation and parsing        setup_s on fed-easy, fed-gpu
//	(workload.*)
//	process (process.*)                 peak_heap_mib, wall_s
//
// A fourth workload, a streamed greedy-pmtn replay (dfrs.RunStream), was
// dropped: on a shared 2-core host its run-to-run spread at a fixed seed
// reached 20%, too close to the 25% bound. The federation members admit
// jobs through the same streaming admission path, and traced fed runs time
// the trace parser.
var workloads = []bench{
	{
		name: "tablei",
		// The paper's headline experiment, allocator-bound: DYNMCB8's
		// drop-and-retry solve loop dominates it. It also covers
		// materialized admission and the campaign pool. At the default
		// seed the run also re-checks BenchmarkTableI's published figures.
		why:  "Table I synthetic legs on the 2-worker campaign pool; allocator-bound (DYNMCB8 solve loop), 2-dimensional",
		algs: tableIAlgorithms,
		// Its piece times spread widest (log-sd 0.48): 80 pieces, about
		// 40 s, keep the geometric mean within a few percent.
		minPieces: 80,
		prepare:   prepareTableI,
		warm:      func() (piece, error) { return tableIPiece(warmSeed, 30, []float64{0.7}) },
	},
	{
		name: "fed-easy",
		// Engine- and federation-bound, no allocator. queuedepth reads
		// live member state, so the parallel loop barriers on every
		// arrival: the side where parallel members do not pay.
		why:       "8-member EASY federation under queuedepth; engine and dispatch bound, barrier on every arrival",
		algs:      []string{"easy"},
		disps:     []string{"queuedepth"},
		minPieces: 24,
		prepare:   func(seed uint64, i int) (piece, error) { return fedEasy(pieceSeed(seed, i), fedEasyJobs) },
		warm:      func() (piece, error) { return fedEasy(warmSeed, 300) },
	},
	{
		name: "fed-gpu",
		// The allocator in its 3-dimensional form next to tablei's
		// 2-dimensional fast path, on the side where parallel members
		// win. A change that speeds up the 2-dimensional path while
		// slowing the multi-resource or parallel path shows here.
		why:   "4-member gpu-uniform DYNMCB8-PER federation; 3-dimensional allocator with parallel members",
		algs:  []string{"dynmcb8-per"},
		disps: []string{"queuedepth"},
		// Its runs spread next widest; 56 pieces take about 28 s.
		minPieces: 56,
		prepare:   func(seed uint64, i int) (piece, error) { return fedGPU(pieceSeed(seed, i), fedGPUJobs) },
		warm:      func() (piece, error) { return fedGPU(warmSeed, 300) },
	},
}

func workloadByName(name string) (bench, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return bench{}, false
}

// ---- tablei ----

// tableIAlgorithms are the nine algorithms of Table I
// (experiments.Algorithms).
var tableIAlgorithms = []string{
	"fcfs", "easy", "greedy", "greedy-pmtn", "greedy-pmtn-migr",
	"dynmcb8", "dynmcb8-per", "dynmcb8-asap-per", "dynmcb8-stretch-per",
}

// tableILoads are Table I's scaled loads at BenchmarkTableI's scale.
var tableILoads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// tableIGrid is experiments.TableI's grid at BenchmarkTableI's scale: 128
// nodes, 100 jobs per synthetic trace, the 5-minute penalty, the nine
// algorithms, traces synthetic base traces at the given loads and
// unscaled, and weeks HPC2N-like weeks (none when 0).
func tableIGrid(seed uint64, traces, weeks, jobs int, loads []float64) dfrs.Grid {
	g := dfrs.Grid{
		Name:       "table1",
		Seeds:      []uint64{seed},
		Algorithms: tableIAlgorithms,
		Families: []dfrs.CampaignFamily{
			{Kind: dfrs.FamilyLublin, Count: traces},
			{Kind: dfrs.FamilyLublin, Count: traces, Loads: []float64{dfrs.UnscaledLoad}},
		},
		Loads:        loads,
		Penalties:    []float64{300},
		Nodes:        []int{128},
		JobsPerTrace: jobs,
	}
	if weeks > 0 {
		g.Families = append(g.Families, dfrs.CampaignFamily{Kind: dfrs.FamilyHPC2N, Count: weeks, Loads: []float64{dfrs.UnscaledLoad}})
	}
	return g
}

// tableIInstance is one campaign over a Table I grid.
type tableIInstance struct {
	grid  dfrs.Grid
	cells int
}

// prepareTableI sets up piece i: the Table I synthetic legs (every scaled
// load and the unscaled trace, all nine algorithms) over one base trace.
// Piece 0 of the default seed is BenchmarkTableI's synthetic half.
//
// The HPC2N-like leg is not a piece: a week is ten times a synthetic
// trace and its cost varies three-fold with the seed, so it would set the
// median alone. At the default seed the run replays BenchmarkTableI's
// whole grid, weeks included, once after the timed pieces (verifyTableI).
func prepareTableI(seed uint64, i int) (piece, error) {
	return tableIPiece(pieceSeed(seed, i), tableIJobs, tableILoads)
}

func tableIPiece(seed uint64, jobs int, loads []float64) (*tableIInstance, error) {
	g := tableIGrid(seed, 1, 0, jobs, loads)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, a := range g.Algorithms {
		if !dfrs.KnownAlgorithm(a) {
			return nil, fmt.Errorf("unknown algorithm %q", a)
		}
	}
	return &tableIInstance{grid: g, cells: len(g.Cells())}, nil
}

func (t *tableIInstance) run(ctx context.Context, s *session) (func() *outcome, error) {
	g := t.grid
	opt := dfrs.CampaignOptions{Workers: tableIWorkers}
	if s != nil {
		g.Algorithms = tracedNames(g.Algorithms)
		opt.Observer = func(c dfrs.CampaignCell) dfrs.Observer {
			o := s.newHookObserver(family(c.Algorithm))
			s.mu.Lock()
			s.cells[c.Key()] = o
			s.mu.Unlock()
			return o
		}
		opt.Progress = func(_, _ int, rec dfrs.CampaignRecord) {
			s.mu.Lock()
			o := s.cells[rec.Key]
			delete(s.cells, rec.Key)
			s.mu.Unlock()
			if o != nil {
				o.finish("campaign.cell")
			}
		}
	}
	var start int64
	if s != nil {
		start = s.now()
	}
	run, err := dfrs.Campaign(ctx, g, opt)
	if err != nil {
		return nil, err
	}
	recs, err := run.Wait()
	if err != nil {
		return nil, err
	}
	if s != nil {
		s.add(span{name: s.id("campaign.run"), start: start, end: s.now()}, nil)
	}
	return func() *outcome { return tableIOutcome(recs, t.grid, t.cells) }, nil
}

// tableIOutcome checks a Table I campaign's records and hashes them.
func tableIOutcome(recs []dfrs.CampaignRecord, g dfrs.Grid, cells int) *outcome {
	recs = canonicalRecords(recs)
	o := &outcome{ops: len(recs), digest: digestOf(recs)}
	for _, r := range recs {
		o.events += r.Events
	}
	o.problems = checkRecords(recs, cells, g.Algorithms, g.JobsPerTrace)
	return o
}

// verifyTableI runs BenchmarkTableI's grid (the first synthetic trace and
// two HPC2N-like weeks of the default seed) and checks its records and its
// three published figures.
func verifyTableI(ctx context.Context) []string {
	g := tableIGrid(defaultSeed, 1, 2, tableIJobs, tableILoads)
	run, err := dfrs.Campaign(ctx, g, dfrs.CampaignOptions{Workers: tableIWorkers})
	if err != nil {
		return []string{err.Error()}
	}
	recs, err := run.Wait()
	if err != nil {
		return []string{err.Error()}
	}
	recs = canonicalRecords(recs)
	probs := checkRecords(recs, len(g.Cells()), g.Algorithms, g.JobsPerTrace)
	figs, err := tableIFiguresOf(recs)
	if err != nil {
		return append(probs, err.Error())
	}
	return append(probs, checkFigures(figs)...)
}

func tracedNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = traced(n)
	}
	return out
}

// ---- fed-easy, fed-gpu ----

// fedInstance is one federated run over one trace.
type fedInstance struct {
	spec  dfrs.FederationSpec
	trace dfrs.Trace
	jobs  int
}

// fedEasy is 8 identical 128-node members running EASY.
func fedEasy(seed uint64, jobs int) (*fedInstance, error) {
	return fedPiece(seed, jobs, "easy", "", 8, 0)
}

// fedGPU is 4 gpu-uniform 128-node members running DYNMCB8-PER on a trace
// where 30% of the jobs also demand GPUs.
func fedGPU(seed uint64, jobs int) (*fedInstance, error) {
	return fedPiece(seed, jobs, "dynmcb8-per", "gpu-uniform", 4, 0.3)
}

// fedPiece draws a 128-node Lublin trace scaled to memberLoad per member
// and declares a federation of identical members of the given mix, each
// running alg, fed by queuedepth dispatch on fedWorkers goroutines.
func fedPiece(seed uint64, jobs int, alg, mix string, members int, gpuFrac float64) (*fedInstance, error) {
	tr, err := dfrs.SyntheticTrace(dfrs.SyntheticOptions{Seed: seed, Nodes: 128, Jobs: jobs, GPUFrac: gpuFrac})
	if err != nil {
		return nil, err
	}
	if tr, err = tr.ScaleToLoad(float64(members) * memberLoad); err != nil {
		return nil, err
	}
	spec := dfrs.FederationSpec{Dispatcher: "queuedepth", Algorithm: alg, Workers: fedWorkers}
	for i := 0; i < members; i++ {
		spec.Clusters = append(spec.Clusters, dfrs.ClusterSpec{NodeMix: mix, Nodes: 128})
	}
	return &fedInstance{spec: spec, trace: tr, jobs: jobs}, nil
}

// serial returns the same problem run on the serial federation loop.
func (f *fedInstance) serial() *fedInstance {
	g := *f
	g.spec.Workers = 1
	return &g
}

// fedOutput is the canonical output of one federated run: per-member and
// merged results plus every job's outcome.
type fedOutput struct {
	Members     []dfrs.FederatedClusterResult
	Dispatched  []int
	MaxStretch  float64
	AvgStretch  float64
	Makespan    float64
	Utilization float64
	Events      int
	Jobs        []dfrs.JobResult
}

func (f *fedInstance) run(ctx context.Context, s *session) (func() *outcome, error) {
	spec := f.spec
	var opts []dfrs.RunOption
	var obs *hookObserver
	if s != nil {
		spec.Algorithm = traced(spec.Algorithm)
		spec.Dispatcher = traced(spec.Dispatcher)
		obs = s.newHookObserver(family(spec.Algorithm))
		opts = append(opts, dfrs.WithObserver(obs))
	}
	res, err := dfrs.RunFederated(ctx, f.trace, spec, opts...)
	if err != nil {
		return nil, err
	}
	if obs != nil {
		p := obs.finish("federation.run")
		for _, d := range s.takeDispatchers() {
			s.addChildren(p, d.buf)
		}
	}
	return func() *outcome {
		out := fedOutput{Dispatched: res.Dispatched(), MaxStretch: res.MaxStretch(), AvgStretch: res.AvgStretch(),
			Makespan: res.Makespan(), Utilization: res.Utilization(), Events: res.Events(), Jobs: res.Jobs()}
		for c := 0; c < res.Clusters(); c++ {
			m := res.Cluster(c)
			m.Algorithm = untraced(m.Algorithm)
			out.Members = append(out.Members, m)
		}
		return &outcome{ops: 1, events: out.Events, digest: digestOf(out), problems: checkFed(out, f.jobs),
			dispatched: out.Dispatched}
	}, nil
}

// checkFed checks one federated run structurally: every job dispatched and
// finished exactly once, stretches at least 1, events counted.
func checkFed(out fedOutput, jobs int) []string {
	dispatched, finished := 0, 0
	for _, m := range out.Members {
		dispatched += m.Dispatched
		finished += m.Finished
	}
	switch {
	case dispatched != jobs, finished != jobs, len(out.Jobs) != jobs:
		return []string{fmt.Sprintf("%d dispatched, %d finished, %d outcomes of %d jobs", dispatched, finished, len(out.Jobs), jobs)}
	case !atLeastOne(out.MaxStretch) || !atLeastOne(out.AvgStretch):
		return []string{fmt.Sprintf("stretch max %g avg %g", out.MaxStretch, out.AvgStretch)}
	case out.Events <= 0:
		return []string{"no events"}
	}
	return nil
}
