// Package mcb implements the paper's global DFRS algorithms built on
// multi-capacity bin packing (Section III-B):
//
//   - DYNMCB8 repacks all jobs in the system at every event, maximizing the
//     minimum yield by binary search over MCB8 feasibility;
//   - DYNMCB8-PER-T does the same but only every T seconds, queueing
//     arrivals until the next scheduling event;
//   - DYNMCB8-ASAP-PER-T additionally starts arrivals immediately by greedy
//     placement when memory allows;
//   - DYNMCB8-STRETCH-PER-T replaces min-yield maximization with
//     minimization of the estimated maximum stretch at the next event.
//
// Whenever no allocation exists however small the yield (a memory-bound
// instance), the job with the smallest priority is removed from
// consideration — paused if it was running — and the packing is retried.
// Most such instances are over the allocator's aggregate rigid-capacity
// bound, so a repack first sheds jobs against that bound without solving:
// while the candidates' total demand in a rigid dimension (memory, then
// Extra) exceeds the cluster's total capacity plus floats.Eps, the same
// lowest-priority job is dropped. The totals run as per-job subtractions
// and are re-summed in the allocator's item order whenever they come
// within a small slack of the limit, so each decision matches the bound
// bit for bit; core's bound stays authoritative for every set solved.
//
// The package also provides the fairness extension sketched in the paper's
// conclusion (Section VII): long-running jobs are excluded from the
// average-yield improvement so that leftover CPU flows to short jobs.
package mcb

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vectorpack"
	"repro/internal/workload"
)

// DefaultPeriod is the paper's scheduling period for the periodic variants
// (10 minutes; Section III-B reports T=600 balances overhead and
// reactivity against T=60 and T=3600).
const DefaultPeriod = 600.0

// tickTag is the timer tag used for periodic scheduling events.
const tickTag int64 = -1

func init() {
	sched.Register("dynmcb8", func() sim.Scheduler { return New(Options{}) })
	sched.Register("dynmcb8-per", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod})
	})
	sched.Register("dynmcb8-asap-per", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod, ASAP: true})
	})
	sched.Register("dynmcb8-stretch-per", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod, Stretch: true})
	})
	// A4 extension: periodic variant with the fairness decay of
	// Section VII's future-work discussion.
	sched.Register("dynmcb8-per-fair", func() sim.Scheduler {
		return New(Options{Period: DefaultPeriod, FairnessAge: 2 * 3600})
	})
}

// Options selects a DYNMCB8 variant.
type Options struct {
	// Period is the scheduling period in seconds; 0 means schedule at
	// every event (plain DYNMCB8).
	Period float64
	// ASAP starts arrivals immediately via greedy placement when memory
	// allows instead of queueing them until the next period.
	ASAP bool
	// Stretch switches the optimization from maximizing the minimum yield
	// to minimizing the estimated maximum stretch.
	Stretch bool
	// Packer selects the bin-packing heuristic; nil means MCB8. Used by
	// ablation A3.
	Packer vectorpack.Packer
	// Priority selects the removal priority function; nil means
	// core.Priority.
	Priority sched.PriorityFunc
	// FairnessAge, when positive, enables the Section VII extension: jobs
	// with more than this much virtual time are excluded from the
	// average-yield improvement heuristic, so spare CPU is reserved for
	// young jobs.
	FairnessAge float64
	// NameOverride sets a custom Name (for ablation variants).
	NameOverride string
}

// Scheduler is the DYNMCB8 family implementation. The trailing fields are
// scratch buffers reused across scheduling events — repacks run at every
// event (or tick), so per-event allocations dominate without them.
type Scheduler struct {
	opt    Options
	packer vectorpack.Packer
	prio   sched.PriorityFunc
	name   string

	ws      core.Workspace
	imp     core.ImproveScratch
	states  []core.StretchState
	specs   []core.JobSpec
	cands   []int
	runBuf  []int
	yields  []float64
	prioBuf []float64
	memBuf  []float64
	greedy  sched.YieldScratch

	// Rigid-capacity pre-drop (shedRigid): per-dimension bound limits
	// TotalCap(k)+floats.Eps of the cluster limFor, cached once per run,
	// and the candidates' running demand totals.
	limFor   *cluster.Cluster
	rigidLim []float64
	rigidSum []float64
}

// New builds a DYNMCB8-family scheduler from options.
func New(opt Options) *Scheduler {
	s := &Scheduler{opt: opt, packer: opt.Packer, prio: opt.Priority}
	if s.packer == nil {
		s.packer = vectorpack.MCB8{}
	}
	if s.prio == nil {
		s.prio = core.Priority
	}
	s.name = opt.NameOverride
	if s.name == "" {
		switch {
		case opt.Period <= 0:
			s.name = "dynmcb8"
		case opt.Stretch:
			s.name = fmt.Sprintf("dynmcb8-stretch-per-%.0f", opt.Period)
		case opt.ASAP:
			s.name = fmt.Sprintf("dynmcb8-asap-per-%.0f", opt.Period)
		case opt.FairnessAge > 0:
			s.name = fmt.Sprintf("dynmcb8-per-fair-%.0f", opt.Period)
		default:
			s.name = fmt.Sprintf("dynmcb8-per-%.0f", opt.Period)
		}
	}
	return s
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return s.name }

// Init implements sim.Scheduler: periodic variants arm the first tick, and
// the run's placement objective (if any) is threaded into the packing
// kernel so repacks fill bins in objective order (e.g. cheap nodes first
// under the cost objective). Scheduler instances are per-run, so the
// packer swap never leaks across simulations.
func (s *Scheduler) Init(ctl *sim.Controller) {
	if obj := ctl.Objective(); obj != nil {
		if oa, ok := s.packer.(vectorpack.ObjectiveAware); ok {
			s.packer = oa.WithObjective(obj)
		}
	}
	if s.opt.Period > 0 {
		ctl.SetTimer(ctl.Now()+s.opt.Period, tickTag)
	}
}

// OnArrival implements sim.Scheduler.
func (s *Scheduler) OnArrival(ctl *sim.Controller, jid int) {
	if s.opt.Period <= 0 {
		s.reschedule(ctl)
		return
	}
	if s.opt.ASAP {
		if nodes, ok := sched.GreedyPlace(ctl, jid); ok {
			ctl.Start(jid, nodes)
			s.greedy.Apply(ctl)
		}
	}
	// Otherwise the job waits in the queue until the next tick.
}

// OnCompletion implements sim.Scheduler.
func (s *Scheduler) OnCompletion(ctl *sim.Controller, _ int) {
	if s.opt.Period <= 0 {
		s.reschedule(ctl)
	}
	// Periodic variants let freed resources sit until the next tick
	// (Section III-B); the ASAP variant only accelerates *arrivals*.
}

// OnTimer implements sim.Scheduler: a periodic scheduling event.
func (s *Scheduler) OnTimer(ctl *sim.Controller, tag int64) {
	if tag != tickTag {
		return
	}
	s.reschedule(ctl)
	ctl.SetTimer(ctl.Now()+s.opt.Period, tickTag)
}

// reschedule runs the global repack over every job in the system.
func (s *Scheduler) reschedule(ctl *sim.Controller) {
	inSet, alloc := s.plan(ctl)
	if alloc != nil {
		s.apply(ctl, inSet, alloc)
	}
}

// plan computes the repack: the jobs kept in the system (ascending jid) and
// their allocation. It returns a nil allocation when no job is active.
//
// Memory-bound instances shed the smallest-priority job and retry. Ties
// break toward the job with the largest memory footprint (fastest route
// back to feasibility), then by jid. The removal keys depend only on the
// event time, so they are computed once and filtered alongside the
// candidate list; nothing retains the unfiltered list, so removals are in
// place. Jobs are first shed against the rigid-capacity bound (shedRigid),
// which drops exactly the jobs the retry loop would have dropped after
// failed solves; the loop then meets only sets that fail at packing time.
func (s *Scheduler) plan(ctl *sim.Controller) (inSet []int, alloc *core.Allocation) {
	now := ctl.Now()
	s.cands = ctl.AppendActiveJobs(s.cands[:0])
	if len(s.cands) == 0 {
		return nil, nil
	}
	candidates, prios, mems := s.shedRigid(ctl, s.cands, now)
	for len(candidates) > 0 {
		if alloc, ok := s.solve(ctl, candidates, now); ok {
			return candidates, alloc
		}
		if prios == nil {
			prios, mems = s.removalKeys(ctl, candidates, now)
		}
		candidates, prios, mems = removeAt(candidates, prios, mems, pickRemoval(candidates, prios, mems))
	}
	return nil, core.NewAllocation()
}

// rigidSlack is the margin, relative to a capacity of at least 1, within
// which shedRigid stops trusting its running demand totals and re-sums in
// item order. The rounding error of a sum of n terms is about n*2^-53 of
// its magnitude (1e-12 for thousands of tasks), far inside the margin, so
// every decision outside it agrees with the exact item-order sum.
const rigidSlack = 1e-6

// shedRigid drops candidates, removal order as in plan, until every rigid
// dimension's total demand (memory, then Extra) fits the cluster's
// aggregate capacity plus floats.Eps: the bound packProbe.pack checks
// before packing. A set over it fails the allocator's first probe
// (feasible(0) in MaxMinYield, try(maxTarget) in MinEstimatedStretch)
// whatever the packer, so the retry loop would drop the same jobs one
// failed solve at a time.
//
// The totals start as sums of Tasks*demand and each drop subtracts the
// dropped job's share. Only a total within rigidSlack of its limit is
// re-summed the way packProbe.refreshRigidTotals accumulates it (per job,
// Tasks repeated additions in candidate order), so decisions at the
// boundary are bit-identical to the bound's; core's bound stays the
// authority for every set that reaches a solve.
func (s *Scheduler) shedRigid(ctl *sim.Controller, candidates []int, now float64) ([]int, []float64, []float64) {
	c := ctl.Cluster()
	if c != s.limFor {
		s.limFor = c
		s.rigidLim = s.rigidLim[:0]
		for k := 0; k < c.D(); k++ {
			s.rigidLim = append(s.rigidLim, c.TotalCap(k)+floats.Eps)
		}
		s.rigidSum = make([]float64, c.D())
	}
	d := len(s.rigidLim)
	sums := s.rigidSum
	clear(sums)
	for _, jid := range candidates {
		j := ctl.JobRef(jid)
		n := float64(j.Tasks)
		for k := cluster.DimMem; k < d; k++ {
			sums[k] += n * rigidDemand(j, k)
		}
	}
	var prios, mems []float64
	for len(candidates) > 0 && s.overRigid(ctl, candidates) {
		if prios == nil {
			prios, mems = s.removalKeys(ctl, candidates, now)
		}
		di := pickRemoval(candidates, prios, mems)
		j := ctl.JobRef(candidates[di])
		n := float64(j.Tasks)
		for k := cluster.DimMem; k < d; k++ {
			sums[k] -= n * rigidDemand(j, k)
		}
		candidates, prios, mems = removeAt(candidates, prios, mems, di)
	}
	return candidates, prios, mems
}

// overRigid reports whether the candidates' demand exceeds the aggregate
// capacity bound in some rigid dimension, re-summing exactly any running
// total that lies within rigidSlack of its limit.
func (s *Scheduler) overRigid(ctl *sim.Controller, jids []int) bool {
	for k := cluster.DimMem; k < len(s.rigidLim); k++ {
		lim, sum := s.rigidLim[k], s.rigidSum[k]
		slack := rigidSlack * math.Max(1, lim)
		if sum < lim-slack {
			continue
		}
		if sum <= lim+slack {
			sum = itemOrderSum(ctl, jids, k)
			s.rigidSum[k] = sum
			if sum <= lim {
				continue
			}
		}
		return true
	}
	return false
}

// rigidDemand is job j's per-task demand in rigid dimension k >= 1, as the
// allocator's items carry it: memory, then Extra, 0 beyond Extra's length.
func rigidDemand(j *workload.Job, k int) float64 {
	if k == cluster.DimMem {
		return j.MemReq
	}
	if e := k - cluster.MinDims; e < len(j.Extra) {
		return j.Extra[e]
	}
	return 0
}

// itemOrderSum sums dimension k's demand over jids one task at a time, in
// the order and with the additions of packProbe.refreshRigidTotals.
func itemOrderSum(ctl *sim.Controller, jids []int, k int) float64 {
	total := 0.0
	for _, jid := range jids {
		j := ctl.JobRef(jid)
		v := rigidDemand(j, k)
		for t := 0; t < j.Tasks; t++ {
			total += v
		}
	}
	return total
}

// removeAt removes entry i from the candidate list and its parallel removal
// keys, in place.
func removeAt(jids []int, prios, mems []float64, i int) ([]int, []float64, []float64) {
	return append(jids[:i], jids[i+1:]...), append(prios[:i], prios[i+1:]...), append(mems[:i], mems[i+1:]...)
}

// solve computes the optimal allocation for the given job set under the
// variant's objective.
func (s *Scheduler) solve(ctl *sim.Controller, jids []int, now float64) (*core.Allocation, bool) {
	if s.opt.Stretch {
		states := s.states[:0]
		for _, jid := range jids {
			states = append(states, core.StretchState{
				JobSpec:     sched.SpecOf(ctl, jid),
				FlowTime:    now - ctl.JobRef(jid).Submit,
				VirtualTime: ctl.VirtualTime(jid),
			})
		}
		s.states = states
		alloc, ok := s.ws.MinEstimatedStretch(states, ctl.Cluster(), s.packer, s.opt.Period)
		if !ok {
			return nil, false
		}
		// Leftover CPU goes to jobs in ascending total CPU need, which
		// raises their yields and so lowers their estimated stretch at the
		// next event: the average-yield heuristic with the paper's
		// tie-break by ID.
		specs := s.specs[:0]
		for i := range states {
			specs = append(specs, states[i].JobSpec)
		}
		s.specs = specs
		s.imp.ImproveAverageYieldRanked(specs, alloc, ctl.Cluster(), nil, nil)
		return alloc, true
	}
	specs := s.specs[:0]
	for _, jid := range jids {
		specs = append(specs, sched.SpecOf(ctl, jid))
	}
	s.specs = specs
	alloc, ok := s.ws.MaxMinYield(specs, ctl.Cluster(), s.packer)
	if !ok {
		return nil, false
	}
	var eligible func(core.JobSpec) bool
	if s.opt.FairnessAge > 0 {
		eligible = func(spec core.JobSpec) bool {
			return ctl.VirtualTime(spec.ID) <= s.opt.FairnessAge
		}
	}
	s.imp.ImproveAverageYieldRanked(specs, alloc, ctl.Cluster(), eligible, sched.ImproveRank(ctl, specs, alloc))
	return alloc, true
}

// removalKeys computes each candidate's removal priority and memory
// footprint into the scheduler's scratch buffers.
func (s *Scheduler) removalKeys(ctl *sim.Controller, jids []int, now float64) (prios, mems []float64) {
	prios, mems = s.prioBuf[:0], s.memBuf[:0]
	for _, jid := range jids {
		j := ctl.JobRef(jid)
		prios = append(prios, s.prio(now-j.Submit, ctl.VirtualTime(jid)))
		mems = append(mems, float64(j.Tasks)*j.MemReq)
	}
	s.prioBuf, s.memBuf = prios, mems
	return prios, mems
}

// pickRemoval selects the job to drop from a memory-bound instance and
// returns its index in jids.
func pickRemoval(jids []int, prios, mems []float64) int {
	best := -1
	bi := -1
	bestPrio := math.Inf(1)
	bestMem := -1.0
	for i, jid := range jids {
		p, mem := prios[i], mems[i]
		switch {
		case best < 0,
			p < bestPrio,
			p == bestPrio && mem > bestMem,
			p == bestPrio && mem == bestMem && jid < best:
			best, bi, bestPrio, bestMem = jid, i, p, mem
		}
	}
	return bi
}

// apply transitions the cluster from its current allocation to alloc:
// running jobs that fell out of the set are paused; running jobs whose node
// multiset changed are paused and immediately resumed at the new location
// (the simulator reclassifies this as a migration); pending and paused jobs
// in the set are started/resumed; finally yields are applied through the
// two-phase update.
func (s *Scheduler) apply(ctl *sim.Controller, inSet []int, alloc *core.Allocation) {
	// inSet descends from ActiveJobs with jobs filtered out in place, so it
	// is sorted ascending: membership is a binary search, no keep-map.
	inKeptSet := func(jid int) bool {
		i := sort.SearchInts(inSet, jid)
		return i < len(inSet) && inSet[i] == jid
	}
	// Phase 1: release everything that leaves or moves. Pausing mutates the
	// running set, so iterate a snapshot.
	s.runBuf = ctl.AppendJobsInState(s.runBuf[:0], sim.Running)
	for _, jid := range s.runBuf {
		if !inKeptSet(jid) {
			ctl.Pause(jid)
			continue
		}
		if !ctl.SameMultiset(ctl.JobNodes(jid), alloc.NodesOf[jid]) {
			ctl.Pause(jid)
		}
	}
	// Phase 2: occupy new placements (deterministic ascending-jid order).
	s.yields = s.yields[:0]
	for _, jid := range inSet {
		nodes := alloc.NodesOf[jid]
		switch ctl.JobState(jid) {
		case sim.Pending:
			ctl.Start(jid, nodes)
		case sim.Paused:
			ctl.Resume(jid, nodes)
		case sim.Running:
			// Unchanged multiset; nothing to move.
		}
		s.yields = append(s.yields, alloc.YieldOf[jid])
	}
	sched.ApplyYieldsList(ctl, inSet, s.yields)
}
