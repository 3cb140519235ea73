package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/vectorpack"
)

// memoCluster builds a small priced three-dimension cluster with GPUs on
// some nodes only. Two calls return distinct clusters with equal nodes.
func memoCluster() *cluster.Cluster {
	return cluster.New([]cluster.NodeSpec{
		cluster.Spec(1, 1, 1).WithCost(2),
		cluster.Spec(1, 1, 0).WithCost(1),
		cluster.Spec(2, 1.5, 2).WithCost(4),
		cluster.Spec(1, 0.5, 0).WithCost(1),
		cluster.Spec(1, 1, 1).WithCost(3),
	})
}

// memoInstance draws a random instance with unique IDs starting at base.
func memoInstance(rng *rand.Rand, base int) []JobSpec {
	jobs := make([]JobSpec, 1+rng.Intn(7))
	for i := range jobs {
		j := JobSpec{
			ID:      base + i,
			Tasks:   1 + rng.Intn(4),
			CPUNeed: 0.05 + 0.95*rng.Float64(),
			MemReq:  0.02 + 0.3*rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			j.Extra = []float64{[]float64{0, 0.25, 0.5}[rng.Intn(3)]}
		}
		if rng.Intn(3) == 0 {
			j.Weight = []float64{0.5, 1, 2}[rng.Intn(3)]
		}
		jobs[i] = j
	}
	return jobs
}

// sameResult reports whether two allocator outcomes are bit-identical.
func sameResult(a *Allocation, aok bool, b *Allocation, bok bool) bool {
	if aok != bok {
		return false
	}
	if !aok {
		return true
	}
	if math.Float64bits(a.MinYield) != math.Float64bits(b.MinYield) ||
		len(a.NodesOf) != len(b.NodesOf) || len(a.YieldOf) != len(b.YieldOf) {
		return false
	}
	for id, na := range a.NodesOf {
		nb, ok := b.NodesOf[id]
		if !ok || len(na) != len(nb) {
			return false
		}
		for k := range na {
			if na[k] != nb[k] {
				return false
			}
		}
	}
	for id, ya := range a.YieldOf {
		yb, ok := b.YieldOf[id]
		if !ok || math.Float64bits(ya) != math.Float64bits(yb) {
			return false
		}
	}
	return true
}

// Property: one Workspace driven through random call sequences — exact
// repeats, single-field changes, infeasible instances, interleaved stretch
// solves, packer and cluster switches, callers scribbling over the result —
// answers every call exactly like a fresh Workspace, and an exact repeat of
// a successful MaxMinYield instance packs nothing.
func TestWorkspaceMemoMatchesFreshWorkspace(t *testing.T) {
	clusters := []*cluster.Cluster{memoCluster(), memoCluster()}
	packers := []vectorpack.Packer{
		vectorpack.MCB8{},
		vectorpack.FirstFitDecreasing{},
		vectorpack.MCB8{}.WithObjective(placement.Cost{}),
	}
	hits, misses := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Workspace
		nextID := 0
		cur := memoInstance(rng, nextID)
		nextID += 100
		c, packer := clusters[0], packers[0]
		lastYieldOK := false // the previous call was a successful MaxMinYield
		for step := 0; step < 200; step++ {
			repeat := false
			switch rng.Intn(11) {
			case 0, 1, 2: // exact repeat through the caller's reused slice
				repeat = true
			case 3: // exact repeat through a fresh deep copy
				cp := make([]JobSpec, len(cur))
				for i, j := range cur {
					j.Extra = append([]float64(nil), j.Extra...)
					cp[i] = j
				}
				cur, repeat = cp, true
			case 4: // change one field of one job in place
				j := &cur[rng.Intn(len(cur))]
				switch rng.Intn(6) {
				case 0:
					j.ID = nextID
					nextID++
				case 1:
					j.Tasks = 1 + (j.Tasks % 4)
				case 2: // by one ulp or to a new value
					j.CPUNeed = math.Nextafter(j.CPUNeed, 0)
					if rng.Intn(2) == 0 {
						j.CPUNeed = 0.05 + 0.95*rng.Float64()
					}
				case 3:
					j.MemReq = math.Nextafter(j.MemReq, 1)
					if rng.Intn(2) == 0 {
						j.MemReq = 0.02 + 0.3*rng.Float64()
					}
				case 4:
					j.Weight = []float64{0, 1, 2}[rng.Intn(3)]
				case 5:
					if len(j.Extra) > 0 {
						j.Extra[0] = 0.5 - j.Extra[0] // mutate the aliased slice
					} else {
						j.Extra = []float64{0.25}
					}
				}
			case 5: // a new instance
				cur = memoInstance(rng, nextID)
				nextID += 100
			case 6: // memory-infeasible: 6 tasks of 0.9 memory on 5 nodes
				cur = append(cur, JobSpec{ID: nextID, Tasks: 6, CPUNeed: 0.1, MemReq: 0.9})
				nextID++
			case 7: // drop the last job (undoes case 6)
				if len(cur) > 1 {
					cur = cur[:len(cur)-1]
				}
			case 8: // an interleaved stretch solve, then repeat the instance
				states := make([]StretchState, len(cur))
				for i := range cur {
					states[i] = StretchState{JobSpec: cur[i], FlowTime: 1000 * rng.Float64(), VirtualTime: 500 * rng.Float64()}
				}
				got, gok := w.MinEstimatedStretch(states, c, packer, 600)
				want, wok := MinEstimatedStretch(states, c, packer, 600)
				if !sameResult(got, gok, want, wok) {
					t.Fatalf("seed %d step %d: MinEstimatedStretch diverged from a fresh workspace", seed, step)
				}
				lastYieldOK = false
			case 9: // switch packer
				packer = packers[rng.Intn(len(packers))]
			case 10: // switch to the other cluster with equal nodes
				if c == clusters[0] {
					c = clusters[1]
				} else {
					c = clusters[0]
				}
			}
			packsBefore := w.probe.repack.Packs
			got, gok := w.MaxMinYield(cur, c, packer)
			want, wok := MaxMinYield(cur, c, packer)
			if !sameResult(got, gok, want, wok) {
				t.Fatalf("seed %d step %d: MaxMinYield(%+v) = (%v, %v), fresh workspace (%v, %v)",
					seed, step, cur, got, gok, want, wok)
			}
			packed := w.probe.repack.Packs - packsBefore
			if repeat && lastYieldOK {
				if packed != 0 {
					t.Fatalf("seed %d step %d: exact repeat packed %d times", seed, step, packed)
				}
				hits++
			} else if packed > 0 {
				misses++
			}
			lastYieldOK = gok
			if gok {
				// Callers own the result until the next call: raise yields as
				// the average-yield heuristic does, and scribble over the
				// node lists.
				ImproveAverageYieldRanked(cur, got, c, nil, nil)
				if rng.Intn(2) == 0 {
					for id, ns := range got.NodesOf {
						got.YieldOf[id] = 0.5
						for k := range ns {
							ns[k] = 0
						}
					}
				}
			}
		}
	}
	if hits < 100 || misses < 100 {
		t.Fatalf("sequences too thin: %d memo hits, %d packing calls", hits, misses)
	}
}
