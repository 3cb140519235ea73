package mcb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// retryPlan is the reference drop-and-retry loop that plan's rigid-capacity
// pre-drop shortcuts: every candidate set goes through a full solve, and a
// job is dropped only after its set's solve failed. ref must be a scheduler
// of its own, so that its workspace sees exactly this loop's call history.
// onTry sees every candidate set before it is solved.
func retryPlan(ref *Scheduler, ctl *sim.Controller, onTry func([]int)) ([]int, *core.Allocation) {
	now := ctl.Now()
	ref.cands = ctl.AppendActiveJobs(ref.cands[:0])
	candidates := ref.cands
	if len(candidates) == 0 {
		return nil, nil
	}
	var prios, mems []float64
	for {
		onTry(candidates)
		if alloc, ok := ref.solve(ctl, candidates, now); ok {
			return candidates, alloc
		}
		if prios == nil {
			prios, mems = ref.removalKeys(ctl, candidates, now)
		}
		di := pickRemoval(candidates, prios, mems)
		candidates = append(candidates[:di], candidates[di+1:]...)
		prios = append(prios[:di], prios[di+1:]...)
		mems = append(mems[:di], mems[di+1:]...)
		if len(candidates) == 0 {
			return nil, core.NewAllocation()
		}
	}
}

// checkedScheduler runs a DYNMCB8 variant and, at every scheduling event,
// compares plan with retryPlan before applying plan's result. Its hooks
// mirror Scheduler's, with the repack split open.
type checkedScheduler struct {
	*Scheduler
	ref *Scheduler
	t   *testing.T
	tag string

	events int // scheduling events compared
	shed   int // jobs shed over all events
	near   int // candidate sets whose rigid total lay within 1e-9 of capacity
}

func (c *checkedScheduler) OnArrival(ctl *sim.Controller, jid int) {
	if c.opt.Period <= 0 {
		c.step(ctl)
		return
	}
	c.Scheduler.OnArrival(ctl, jid)
}

func (c *checkedScheduler) OnCompletion(ctl *sim.Controller, _ int) {
	if c.opt.Period <= 0 {
		c.step(ctl)
	}
}

func (c *checkedScheduler) OnTimer(ctl *sim.Controller, tag int64) {
	if tag != tickTag {
		return
	}
	c.step(ctl)
	ctl.SetTimer(ctl.Now()+c.opt.Period, tickTag)
}

func (c *checkedScheduler) step(ctl *sim.Controller) {
	inSet, alloc := c.plan(ctl)
	refSet, refAlloc := retryPlan(c.ref, ctl, func(set []int) { c.countNear(ctl, set) })
	where := fmt.Sprintf("%s t=%v", c.tag, ctl.Now())
	if (alloc == nil) != (refAlloc == nil) {
		c.t.Fatalf("%s: plan allocation nil=%v, retry loop nil=%v", where, alloc == nil, refAlloc == nil)
	}
	if !slices.Equal(inSet, refSet) {
		c.t.Fatalf("%s: plan kept %v, retry loop kept %v", where, inSet, refSet)
	}
	if alloc == nil {
		return
	}
	c.events++
	c.shed += len(ctl.AppendActiveJobs(nil)) - len(inSet)
	if len(alloc.NodesOf) != len(refAlloc.NodesOf) || len(alloc.YieldOf) != len(refAlloc.YieldOf) ||
		math.Float64bits(alloc.MinYield) != math.Float64bits(refAlloc.MinYield) {
		c.t.Fatalf("%s: plan allocation %+v; retry loop %+v", where, alloc, refAlloc)
	}
	for jid, nodes := range refAlloc.NodesOf {
		if !slices.Equal(alloc.NodesOf[jid], nodes) {
			c.t.Fatalf("%s: job %d on nodes %v; retry loop %v", where, jid, alloc.NodesOf[jid], nodes)
		}
	}
	for jid, y := range refAlloc.YieldOf {
		got, ok := alloc.YieldOf[jid]
		if !ok || math.Float64bits(got) != math.Float64bits(y) {
			c.t.Fatalf("%s: job %d yield %v; retry loop %v", where, jid, got, y)
		}
	}
	c.apply(ctl, inSet, alloc)
}

// countNear counts a candidate set whose item-order total in some rigid
// dimension lies within 1e-9 of the aggregate capacity, where the pre-drop
// must decide by the exact sum.
func (c *checkedScheduler) countNear(ctl *sim.Controller, set []int) {
	cl := ctl.Cluster()
	for k := cluster.DimMem; k < cl.D(); k++ {
		if math.Abs(itemOrderSum(ctl, set, k)-cl.TotalCap(k)) <= 1e-9 {
			c.near++
			return
		}
	}
}

// shedTrace draws a small memory-oversubscribed trace. Memory demands come
// from fractions whose item-order sums land on or next to whole node
// capacities; submissions cluster on a few instants, so several never-run
// jobs (priority +Inf) compete and ties fall to the memory and jid keys.
func shedTrace(rng *rand.Rand, nodes int, gpu bool) *workload.Trace {
	mems := []float64{0.1, 0.2, 0.25, 0.3, 1.0 / 3}
	gpus := []float64{0, 0.1, 0.25, 0.3, 1.0 / 3, 0.5}
	submits := []float64{0, 0, 0, 40, 40, 650, 1300, 1300, 2500}
	tr := &workload.Trace{Name: "shed", Nodes: nodes, NodeMemGB: 8}
	for id := range 10 + rng.Intn(14) {
		j := workload.Job{
			ID:       id,
			Submit:   submits[rng.Intn(len(submits))] + float64(rng.Intn(3)),
			Tasks:    1 + rng.Intn(min(3, nodes)),
			CPUNeed:  0.1 + 0.9*rng.Float64(),
			MemReq:   mems[rng.Intn(len(mems))],
			ExecTime: 50 + float64(rng.Intn(9000)),
		}
		if gpu {
			j.Extra = []float64{gpus[rng.Intn(len(gpus))]}
		}
		tr.Jobs = append(tr.Jobs, j)
	}
	slices.SortStableFunc(tr.Jobs, func(a, b workload.Job) int {
		switch {
		case a.Submit < b.Submit:
			return -1
		case a.Submit > b.Submit:
			return 1
		}
		return 0
	})
	for i := range tr.Jobs {
		tr.Jobs[i].ID = i
	}
	return tr
}

// Property: at every scheduling event of randomized memory- and
// GPU-oversubscribed runs, plan keeps the same jobs as the reference
// drop-and-retry loop and hands them bit-identical nodes and yields, for
// all five registered DYNMCB8 variants on 2-d and gpu-uniform 3-d
// clusters; and a checked run finishes every job exactly when an unchecked
// run does.
func TestPlanMatchesRetryLoop(t *testing.T) {
	variants := []string{"dynmcb8", "dynmcb8-per", "dynmcb8-asap-per", "dynmcb8-stretch-per", "dynmcb8-per-fair"}
	for _, name := range variants {
		for _, mix := range []string{cluster.ProfileUniform, cluster.ProfileGPUUniform} {
			t.Run(name+"/"+mix, func(t *testing.T) {
				var events, shed, near int
				for seed := int64(1); seed <= 12; seed++ {
					rng := rand.New(rand.NewSource(seed))
					nodes := 2 + rng.Intn(4)
					tr := shedTrace(rng, nodes, mix == cluster.ProfileGPUUniform)
					cl, err := cluster.Profile(mix, nodes)
					if err != nil {
						t.Fatal(err)
					}
					cfg := sim.Config{Trace: tr, Cluster: cl, Penalty: float64(300 * (seed % 2)), CheckInvariants: true}
					chk := &checkedScheduler{Scheduler: newVariant(t, name), ref: newVariant(t, name), t: t,
						tag: fmt.Sprintf("seed %d", seed)}
					checked := mustRun(t, cfg, chk)
					plain := mustRun(t, cfg, newVariant(t, name))
					if len(checked.Jobs) != len(plain.Jobs) {
						t.Fatalf("seed %d: %d jobs finished checked, %d unchecked", seed, len(checked.Jobs), len(plain.Jobs))
					}
					for i := range plain.Jobs {
						a, b := checked.Jobs[i], plain.Jobs[i]
						if a.Job.ID != b.Job.ID || math.Float64bits(a.Finish) != math.Float64bits(b.Finish) {
							t.Fatalf("seed %d: job %d finished at %v checked, job %d at %v unchecked",
								seed, a.Job.ID, a.Finish, b.Job.ID, b.Finish)
						}
					}
					events, shed, near = events+chk.events, shed+chk.shed, near+chk.near
				}
				// The sweep must exercise what it claims to cover.
				if events == 0 || shed == 0 || near == 0 {
					t.Fatalf("weak coverage: %d events, %d jobs shed, %d near-capacity sets", events, shed, near)
				}
				t.Logf("%d events, %d jobs shed, %d near-capacity sets", events, shed, near)
			})
		}
	}
}

// Property: the pre-drop decides at the bound by the item-order sum, not by
// the per-job products Tasks*demand it keeps as running totals. Three
// 2-task jobs on a 3-node cluster sum, one task at a time, to exactly the
// bound's limit 3+floats.Eps, while their products sum past it. The bound
// admits the set and the packer fits two tasks per node, so the retry
// loop sheds nothing, in memory on a 2-d cluster and in GPU on a 3-d one.
func TestPlanDecidesAtTheBoundByItemOrderSum(t *testing.T) {
	demands := []float64{0.5000000001666672, 0.5000000001666661, 0.5000000001666669}
	lim := 3 + floats.Eps
	est, exact := 0.0, 0.0
	for _, v := range demands {
		est += float64(2 * v)
		exact += v
		exact += v
	}
	if !(est > lim && exact <= lim) {
		t.Fatalf("demands do not straddle the limit %v: products %v, item order %v", lim, est, exact)
	}
	for _, mix := range []string{cluster.ProfileUniform, cluster.ProfileGPUUniform} {
		for _, name := range []string{"dynmcb8", "dynmcb8-stretch-per"} {
			cl, err := cluster.Profile(mix, 3)
			if err != nil {
				t.Fatal(err)
			}
			tr := &workload.Trace{Name: "bound", Nodes: 3, NodeMemGB: 8}
			for id, v := range demands {
				j := jb(id, float64(10*id), 2, 0.1, v, 1000)
				if mix == cluster.ProfileGPUUniform {
					j.MemReq, j.Extra = 0.1, []float64{v}
				}
				tr.Jobs = append(tr.Jobs, j)
			}
			chk := &checkedScheduler{Scheduler: newVariant(t, name), ref: newVariant(t, name), t: t, tag: name + "/" + mix}
			res := mustRun(t, sim.Config{Trace: tr, Cluster: cl, CheckInvariants: true}, chk)
			if chk.events == 0 || chk.shed != 0 || len(res.Jobs) != len(demands) {
				t.Errorf("%s/%s: %d events, %d jobs shed, %d finished; want no shedding", name, mix, chk.events, chk.shed, len(res.Jobs))
			}
		}
	}
}

// newVariant builds the registered DYNMCB8 variant name.
func newVariant(t *testing.T, name string) *Scheduler {
	t.Helper()
	s, err := sched.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*Scheduler)
}

func mustRun(t *testing.T, cfg sim.Config, s sim.Scheduler) *sim.Result {
	t.Helper()
	simulator, err := sim.New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tickBench is DYNMCB8-PER whose second periodic tick repacks b.N times
// under the benchmark timer instead of once.
type tickBench struct {
	*Scheduler
	b    *testing.B
	ran  bool
	shed int
}

func (tb *tickBench) OnTimer(ctl *sim.Controller, tag int64) {
	if tag != tickTag || ctl.Now() != 2*tb.opt.Period {
		tb.Scheduler.OnTimer(ctl, tag)
		return
	}
	active := len(ctl.AppendActiveJobs(nil))
	tb.b.ResetTimer()
	for range tb.b.N {
		inSet, alloc := tb.plan(ctl)
		tb.apply(ctl, inSet, alloc)
		tb.shed += active - len(inSet)
	}
	tb.b.StopTimer()
	tb.ran = true
	ctl.SetTimer(ctl.Now()+tb.opt.Period, tickTag)
}

// BenchmarkRescheduleMemoryBound measures one DYNMCB8-PER tick on a 32-node
// cluster whose jobs ask for about 3x its memory: at the second tick (t=1200)
// running, paused and never-run jobs compete, and about two thirds of them
// must be shed before the repack fits. shed/op counts the jobs left out.
func BenchmarkRescheduleMemoryBound(b *testing.B) {
	const nodes = 32
	rng := rand.New(rand.NewSource(1))
	tr := &workload.Trace{Name: "mem-bound", Nodes: nodes, NodeMemGB: 8}
	for mem := 0.0; mem < 3*nodes; {
		j := jb(len(tr.Jobs), float64(15*len(tr.Jobs)), 1+rng.Intn(4), 0.2+0.8*rng.Float64(),
			0.25+0.5*rng.Float64(), 5000+float64(rng.Intn(15000)))
		mem += float64(j.Tasks) * j.MemReq
		tr.Jobs = append(tr.Jobs, j)
	}
	tb := &tickBench{Scheduler: New(Options{Period: DefaultPeriod}), b: b}
	simulator, err := sim.New(sim.Config{Trace: tr}, tb)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if _, err := simulator.Run(); err != nil {
		b.Fatal(err)
	}
	if !tb.ran {
		b.Fatal("the run ended before its second tick")
	}
	b.ReportMetric(float64(tb.shed)/float64(b.N), "shed/op")
}
