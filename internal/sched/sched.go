// Package sched provides the machinery shared by every scheduling
// algorithm: greedy task placement, the pause/resume priority ordering of
// Section III-A, uniform-yield application with the average-yield
// improvement heuristic, and a registry mapping the paper's algorithm names
// to constructors.
//
// Node selection is split into feasibility filtering (the paper's hard
// memory/GPU constraints, implemented here) and scoring (which feasible
// node to prefer), the placement-objective layer of internal/placement.
// With no objective configured (Controller.Objective() == nil) placement
// uses the inlined Section III-A rule — the least relatively CPU-loaded
// feasible node, exactly the published GREEDY — which coincides with the
// placement.LoadBalance objective; a configured objective (cost, bestfit,
// worstfit, ...) replaces the scoring half while the feasibility filter
// stays untouched.
package sched

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PriorityFunc computes a job's preemption priority from its flow time and
// virtual time. The default is core.Priority; core.PriorityLinear is the
// ablation variant.
type PriorityFunc func(flowTime, virtualTime float64) float64

// Spec converts a job snapshot into the DFRS core's resource description.
func Spec(ji sim.JobInfo) core.JobSpec {
	return core.JobSpec{
		ID:      ji.JID,
		Tasks:   ji.Job.Tasks,
		CPUNeed: ji.Job.CPUNeed,
		MemReq:  ji.Job.MemReq,
		Extra:   ji.Job.Extra,
		Weight:  ji.Job.Weight,
	}
}

// SpecOf is Spec straight off the controller, reading the job record in
// place instead of copying a JobInfo snapshot first.
func SpecOf(ctl *sim.Controller, jid int) core.JobSpec {
	j := ctl.JobRef(jid)
	return core.JobSpec{
		ID:      jid,
		Tasks:   j.Tasks,
		CPUNeed: j.CPUNeed,
		MemReq:  j.MemReq,
		Extra:   j.Extra,
		Weight:  j.Weight,
	}
}

// GreedyPlace computes the GREEDY placement of Section III-A for job jid:
// each task in turn goes to the node with the lowest relative CPU load
// (load divided by the node's CPU capacity — on the paper's unit-capacity
// platform exactly the raw load) among nodes with enough free capacity in
// every rigid dimension (memory, and GPU etc. on multi-resource clusters;
// tasks already placed in this call are taken into account). It returns
// one node per task, or ok=false if some task cannot be placed. Cluster
// state is not modified. When the run configures a placement objective,
// the relative-load score is replaced by the objective's score over the
// same feasibility filter.
func GreedyPlace(ctl *sim.Controller, jid int) (nodes []int, ok bool) {
	ji := ctl.JobLite(jid)
	n := ctl.NumNodes()
	d := ctl.NumDims()
	obj := ctl.Objective()
	if d == 2 && obj == nil {
		// The paper's two-resource platform is the placement hot path
		// (every greedy admission and every DYNMCB8-ASAP arrival): answer
		// each task's least-loaded-feasible query from the node index in
		// O(log n) instead of scanning. Both this and the scan below are
		// the inlined placement.LoadBalance objective (locked equivalent by
		// TestDefaultObjectiveLock).
		return greedyPlace2Indexed(ctl, ji)
	}
	dems := rigidDemands(ji.Job, d)
	placed := newTally(n, d)
	if obj != nil {
		return greedyPlaceObjective(ctl, ji, dems, placed, obj)
	}
	nodes = make([]int, 0, ji.Job.Tasks)
	for task := 0; task < ji.Job.Tasks; task++ {
		best := -1
		bestLoad := math.Inf(1)
		for node := 0; node < n; node++ {
			fit := true
			for r, dem := range dems {
				if !floats.LessEq(dem, ctl.FreeRes(node, r+1)-placed.rigid[r][node]) {
					fit = false
					break
				}
			}
			if !fit {
				continue
			}
			load := (ctl.CPULoad(node) + placed.load[node]) / ctl.CPUCap(node)
			if load < bestLoad {
				bestLoad = load
				best = node
			}
		}
		if best < 0 {
			return nil, false
		}
		nodes = append(nodes, best)
		placed.add(best, ji.Job.CPUNeed, dems)
	}
	return nodes, true
}

// rigidDemands hoists a task's demand in every rigid dimension 1..d-1 out
// of the placement scan loops.
func rigidDemands(j workload.Job, d int) []float64 {
	dems := make([]float64, d-1)
	for r := range dems {
		dems[r] = j.Demand(r + 1)
	}
	return dems
}

// tally accumulates the usage of the tasks one GreedyPlace call has already
// placed, on top of the simulator's live state.
type tally struct {
	// rigid[r][node] is the placed demand in rigid dimension r+1 (rigid[0]
	// is memory).
	rigid [][]float64
	// load[node] is the placed CPU load.
	load []float64
}

// newTally returns an empty tally for n nodes and d resource dimensions.
func newTally(n, d int) *tally {
	t := &tally{load: make([]float64, n), rigid: make([][]float64, d-1)}
	for r := range t.rigid {
		t.rigid[r] = make([]float64, n)
	}
	return t
}

// add records one task placed on node.
func (t *tally) add(node int, cpuNeed float64, dems []float64) {
	t.load[node] += cpuNeed
	for r, dem := range dems {
		t.rigid[r][node] += dem
	}
}

// greedyPlace2Indexed answers the two-resource placement scan from the
// simulator's node index. Tasks already placed in this call are overlaid
// onto the touched leaves with exactly the expressions of GreedyPlace's
// linear scan — free memory minus the memory placed so far, (load plus the
// load placed so far) over capacity — and every touched leaf is restored
// to its live values before returning, on success and on failure alike.
// Untouched leaves already hold the scan's values (a zero placed term only
// flips the sign of a zero, which no comparison observes), and ArgminLoad
// applies the same strict-improvement, ascending-node-order selection as
// the scan, so the chosen nodes are identical bit for bit.
func greedyPlace2Indexed(ctl *sim.Controller, ji sim.JobInfo) ([]int, bool) {
	t := ctl.NodeIndex()
	memReq := ji.Job.MemReq
	cpuNeed := ji.Job.CPUNeed
	nodes := make([]int, 0, ji.Job.Tasks)
	var touched []int
	var planMem, planLoad []float64 // parallel to touched
	ok := true
	for task := 0; task < ji.Job.Tasks; task++ {
		node := t.ArgminLoad(memReq)
		if node < 0 {
			ok = false
			break
		}
		nodes = append(nodes, node)
		ti := -1
		for i, tn := range touched {
			if tn == node {
				ti = i
				break
			}
		}
		if ti < 0 {
			ti = len(touched)
			touched = append(touched, node)
			planMem = append(planMem, 0)
			planLoad = append(planLoad, 0)
		}
		planMem[ti] += memReq
		planLoad[ti] += cpuNeed
		t.Set(node,
			(ctl.CPULoad(node)+planLoad[ti])/ctl.CPUCap(node),
			ctl.FreeMem(node)-planMem[ti])
	}
	for _, node := range touched {
		t.Set(node, ctl.CPULoad(node)/ctl.CPUCap(node), ctl.FreeMem(node))
	}
	if !ok {
		return nil, false
	}
	return nodes, true
}

// planState adapts the simulator's live usage plus the tasks placed so far
// in one GreedyPlace call (nil: none) to placement.State, so objectives
// score nodes as if those placements had already happened.
type planState struct {
	ctl    *sim.Controller
	placed *tally
}

// Dims implements placement.State.
func (s planState) Dims() int { return s.ctl.NumDims() }

// Cap implements placement.State.
func (s planState) Cap(node, k int) float64 { return s.ctl.ResCap(node, k) }

// Free implements placement.State: free capacity net of the placed tasks.
// For the fluid CPU dimension this is capacity minus load (possibly
// negative under time-sharing).
func (s planState) Free(node, k int) float64 {
	if k == 0 {
		return s.ctl.CPUCap(node) - s.CPULoad(node)
	}
	free := s.ctl.FreeRes(node, k)
	if s.placed != nil && k-1 < len(s.placed.rigid) {
		free -= s.placed.rigid[k-1][node]
	}
	return free
}

// CPULoad implements placement.State.
func (s planState) CPULoad(node int) float64 {
	load := s.ctl.CPULoad(node)
	if s.placed != nil {
		load += s.placed.load[node]
	}
	return load
}

// Cost implements placement.State.
func (s planState) Cost(node int) float64 { return s.ctl.NodeCost(node) }

// greedyPlaceObjective is the objective-scored placement scan: the same
// per-task feasibility filter as the default paths (free capacity in every
// rigid dimension, net of the tasks already placed), with the node choice
// delegated to placement.Pick under the configured objective.
func greedyPlaceObjective(ctl *sim.Controller, ji sim.JobInfo, dems []float64, placed *tally, obj placement.Objective) ([]int, bool) {
	n := ctl.NumNodes()
	st := planState{ctl: ctl, placed: placed}
	dem := placement.Demand(ji.Job.Demand)
	feasible := func(node int) bool {
		for r, dm := range dems {
			if !floats.LessEq(dm, ctl.FreeRes(node, r+1)-placed.rigid[r][node]) {
				return false
			}
		}
		return true
	}
	nodes := make([]int, 0, ji.Job.Tasks)
	for task := 0; task < ji.Job.Tasks; task++ {
		best := placement.Pick(n, dem, st, feasible, obj)
		if best < 0 {
			return nil, false
		}
		nodes = append(nodes, best)
		placed.add(best, ji.Job.CPUNeed, dems)
	}
	return nodes, true
}

// ImproveRank returns the per-job secondary sort keys the average-yield
// improvement heuristic uses for tie-breaking under the run's objective:
// the sum of the objective's static node scores (zero demand) over each
// job's hosting nodes. It returns nil — the paper's tie-break by job ID —
// unless the configured objective opts in through placement.JobRanker (the
// cost objective does: granting leftover CPU to jobs on expensive nodes
// first finishes them sooner and releases the priced capacity).
func ImproveRank(ctl *sim.Controller, specs []core.JobSpec, alloc *core.Allocation) []float64 {
	obj := ctl.Objective()
	if obj == nil {
		return nil
	}
	jr, ok := obj.(placement.JobRanker)
	if !ok || !jr.RanksJobs() {
		return nil
	}
	st := planState{ctl: ctl}
	rank := make([]float64, len(specs))
	for i, spec := range specs {
		for _, node := range alloc.NodesOf[spec.ID] {
			rank[i] += obj.Score(placement.ZeroDemand, node, st)
		}
	}
	return rank
}

// ByPriority returns jids sorted by the priority function evaluated at now:
// ascending (pause candidates first) when asc is true, descending (resume
// candidates first) otherwise. Infinite priorities sort last in ascending
// order and first in descending order; ties break by jid for determinism.
func ByPriority(ctl *sim.Controller, jids []int, now float64, pf PriorityFunc, asc bool) []int {
	type jidPrio struct {
		jid int
		p   float64
	}
	pairs := make([]jidPrio, len(jids))
	for i, jid := range jids {
		pairs[i] = jidPrio{jid: jid, p: pf(now-ctl.JobRef(jid).Submit, ctl.VirtualTime(jid))}
	}
	sort.SliceStable(pairs, func(a, b int) bool {
		pa, pb := pairs[a].p, pairs[b].p
		if pa != pb {
			if asc {
				return pa < pb
			}
			return pa > pb
		}
		return pairs[a].jid < pairs[b].jid
	})
	out := make([]int, len(pairs))
	for i, pr := range pairs {
		out[i] = pr.jid
	}
	return out
}

// YieldScratch holds the buffers of the GREEDY yield computation so
// schedulers invoking it on every event can reuse them. The zero value is
// ready to use.
type YieldScratch struct {
	running []int
	specs   []core.JobSpec
	vals    []float64
	alloc   *core.Allocation
	imp     core.ImproveScratch
}

// Apply implements the GREEDY yield rule of Section III-A on the current
// set of running jobs: every job receives the uniform yield
// 1/max(1, maxLoad) — maxLoad being the maximum relative (capacity-scaled)
// CPU load, which maximizes the minimum yield for the current placement and
// keeps every node within its own CPU capacity — and the average-yield
// improvement heuristic then distributes leftover CPU. Yields are applied
// through a zero-first two-phase update so no node ever transiently exceeds
// capacity.
func (ys *YieldScratch) Apply(ctl *sim.Controller) {
	ys.running = ctl.AppendJobsInState(ys.running[:0], sim.Running)
	running := ys.running
	if len(running) == 0 {
		return
	}
	base := 1.0 / math.Max(1, ctl.MaxCPULoad())
	if ys.alloc == nil {
		ys.alloc = core.NewAllocation()
	}
	alloc := ys.alloc
	clear(alloc.NodesOf)
	clear(alloc.YieldOf)
	ys.specs = ys.specs[:0]
	for _, jid := range running {
		ys.specs = append(ys.specs, SpecOf(ctl, jid))
		alloc.NodesOf[jid] = ctl.JobNodes(jid)
		alloc.YieldOf[jid] = base
	}
	alloc.MinYield = base
	ys.imp.ImproveAverageYieldRanked(ys.specs, alloc, ctl.Cluster(), nil, ImproveRank(ctl, ys.specs, alloc))
	ys.vals = ys.vals[:0]
	for _, jid := range running {
		ys.vals = append(ys.vals, alloc.YieldOf[jid])
	}
	ApplyYieldsList(ctl, running, ys.vals)
}

// ApplyYields sets each listed running job's yield, zeroing all of them
// first so that no intermediate state oversubscribes a node's CPU.
func ApplyYields(ctl *sim.Controller, yields map[int]float64) {
	jids := make([]int, 0, len(yields))
	for jid := range yields {
		jids = append(jids, jid)
	}
	sort.Ints(jids)
	for _, jid := range jids {
		ctl.SetYield(jid, 0)
	}
	for _, jid := range jids {
		ctl.SetYield(jid, floats.Clamp01(yields[jid]))
	}
}

// ApplyYieldsList is ApplyYields over parallel slices: jids must be in
// ascending order with yields[i] the yield of jids[i]. It performs the same
// zero-first two-phase update without building a map.
func ApplyYieldsList(ctl *sim.Controller, jids []int, yields []float64) {
	for _, jid := range jids {
		ctl.SetYield(jid, 0)
	}
	for i, jid := range jids {
		ctl.SetYield(jid, floats.Clamp01(yields[i]))
	}
}

// BackoffDelay returns the bounded exponential backoff of Section III-A for
// the given number of failed scheduling attempts: min(2^12, 2^count)
// seconds.
func BackoffDelay(count int) float64 {
	const cap = 1 << 12
	if count >= 12 {
		return cap
	}
	return float64(int(1) << count)
}
