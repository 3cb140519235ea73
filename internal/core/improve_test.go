package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/floats"
)

// quadraticImprove is the average-yield heuristic as it was before the
// node-indexed pairing: each task's node is looked up by a linear scan over
// the job's pairs so far. It is the reference for the pairing test.
func quadraticImprove(jobs []JobSpec, alloc *Allocation, c *cluster.Cluster, eligible func(JobSpec) bool, rank []float64) {
	used := make([]float64, c.N())
	var pairs []nodeCnt
	off := make([]int, len(jobs)+1)
	for ji := range jobs {
		j := &jobs[ji]
		start := len(pairs)
		for _, node := range alloc.NodesOf[j.ID] {
			found := false
			for k := start; k < len(pairs); k++ {
				if pairs[k].node == node {
					pairs[k].cnt++
					found = true
					break
				}
			}
			if !found {
				pairs = append(pairs, nodeCnt{node, 1})
			}
			used[node] += j.CPUNeed * alloc.YieldOf[j.ID]
		}
		off[ji+1] = len(pairs)
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ta, tb := jobs[a].TotalCPUNeed(), jobs[b].TotalCPUNeed()
		if ta < tb {
			return -1
		}
		if ta > tb {
			return 1
		}
		if rank != nil {
			if rank[a] > rank[b] {
				return -1
			}
			if rank[b] > rank[a] {
				return 1
			}
		}
		return jobs[a].ID - jobs[b].ID
	})
	active := order
	for {
		improvedAny := false
		w := 0
		r := 0
		for ; r < len(active); r++ {
			ji := active[r]
			j := &jobs[ji]
			if eligible != nil && !eligible(*j) {
				continue
			}
			y := alloc.YieldOf[j.ID]
			if floats.GreaterEq(y, 1) {
				continue
			}
			active[w] = ji
			w++
			delta := math.Inf(1)
			for _, nc := range pairs[off[ji]:off[ji+1]] {
				head := c.CPUCap(nc.node) - used[nc.node]
				if head < 0 {
					head = 0
				}
				d := head / (j.CPUNeed * float64(nc.cnt))
				if d < delta {
					delta = d
				}
			}
			if delta > 1-y {
				delta = 1 - y
			}
			if !floats.Greater(delta, 0) {
				continue
			}
			alloc.YieldOf[j.ID] = y + delta
			for _, nc := range pairs[off[ji]:off[ji+1]] {
				used[nc.node] += j.CPUNeed * float64(nc.cnt) * delta
			}
			improvedAny = true
			break
		}
		if !improvedAny {
			return
		}
		if r+1 < len(active) {
			w += copy(active[w:], active[r+1:])
		}
		active = active[:w]
	}
}

// Property: the slot-array pairing leaves the heuristic bit-identical to
// the quadratic scan, on jobs of up to 64 tasks with repeated nodes, with
// and without the rank tie-break and the eligibility filter.
func TestImprovePairingMatchesQuadraticScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sc ImproveScratch // reused across instances, as schedulers do
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(16)
		specs := make([]cluster.NodeSpec, n)
		for i := range specs {
			specs[i] = cluster.Spec([]float64{1, 2}[rng.Intn(2)], 1)
		}
		c := cluster.New(specs)
		jobs := make([]JobSpec, 1+rng.Intn(10))
		want := NewAllocation()
		for i := range jobs {
			// Few distinct shapes, so total CPU needs tie and rank matters.
			j := JobSpec{ID: 3*i + rng.Intn(3), Tasks: []int{1, 2, 4, 16, 64}[rng.Intn(5)], CPUNeed: []float64{0.25, 0.5, 1}[rng.Intn(3)]}
			jobs[i] = j
			span := 1 + rng.Intn(n) // a narrow span repeats nodes
			nodes := make([]int, j.Tasks)
			for k := range nodes {
				nodes[k] = rng.Intn(span)
			}
			want.NodesOf[j.ID] = nodes
			want.YieldOf[j.ID] = []float64{0, 0.01, 0.2, 1}[rng.Intn(4)]
		}
		var rank []float64
		if trial%2 == 1 {
			rank = make([]float64, len(jobs))
			for i := range rank {
				rank[i] = float64(rng.Intn(3))
			}
		}
		var eligible func(JobSpec) bool
		if trial%4 >= 2 {
			eligible = func(j JobSpec) bool { return j.ID%2 == 0 }
		}
		got := &Allocation{NodesOf: want.NodesOf, YieldOf: map[int]float64{}}
		for id, y := range want.YieldOf {
			got.YieldOf[id] = y
		}
		quadraticImprove(jobs, want, c, eligible, rank)
		sc.ImproveAverageYieldRanked(jobs, got, c, eligible, rank)
		for id, y := range want.YieldOf {
			if math.Float64bits(got.YieldOf[id]) != math.Float64bits(y) {
				t.Fatalf("trial %d: job %d yield %v, quadratic scan %v", trial, id, got.YieldOf[id], y)
			}
		}
	}
}
