package sched

// Tests for capacity-aware greedy placement on heterogeneous clusters.

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildSimCluster is buildSim with an explicit cluster model.
func buildSimCluster(t *testing.T, tr *workload.Trace, cl *cluster.Cluster, body func(ctl *sim.Controller)) {
	t.Helper()
	done := false
	var ys YieldScratch
	s := &probe{onArrival: func(ctl *sim.Controller, jid int) {
		if jid == 0 && !done {
			done = true
			body(ctl)
		}
		if ctl.Job(jid).State == sim.Pending {
			if nodes, ok := GreedyPlace(ctl, jid); ok {
				ctl.Start(jid, nodes)
			}
		}
		ys.Apply(ctl)
	}}
	simulator, err := sim.New(sim.Config{Trace: tr, Cluster: cl, CheckInvariants: true}, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("probe body never ran")
	}
}

// TestGreedyPlacePrefersFatNodesRelativeLoad: on a fat/thin cluster the
// greedy rule compares *relative* load, so a fat node carrying more
// absolute load than a reference node can still be the least-loaded choice.
func TestGreedyPlacePrefersFatNodesRelativeLoad(t *testing.T) {
	tr := &workload.Trace{Name: "het", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.6, 0.1, 100),
		jb(1, 0, 1, 0.4, 0.1, 100),
	}}
	cl := cluster.New([]cluster.NodeSpec{
		cluster.Spec(2, 2),
		cluster.Spec(1, 1),
	})
	buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
		// Load the fat node with 0.6: relative load 0.3 versus 0 on the
		// reference node, so job 1 goes to the reference node.
		ctl.Start(0, []int{0})
		ctl.SetYield(0, 1)
		nodes, ok := GreedyPlace(ctl, 1)
		if !ok {
			t.Fatal("placement failed")
		}
		if nodes[0] != 1 {
			t.Errorf("picked node %d, want the idle reference node 1", nodes[0])
		}
		// Load the reference node with 0.4 too (relative 0.4 > 0.3): the
		// next placement must prefer the fat node again.
		ctl.Start(1, []int{1})
		ctl.SetYield(1, 1)
		nodes2, ok := GreedyPlace(ctl, 1)
		if !ok {
			t.Fatal("hypothetical placement failed")
		}
		if nodes2[0] != 0 {
			t.Errorf("relative load ignored: picked node %d, want fat node 0", nodes2[0])
		}
	})
}

// TestGreedyPlaceRespectsThinNodeMemory: a task whose memory requirement
// exceeds a thin node's capacity must never be placed there.
func TestGreedyPlaceRespectsThinNodeMemory(t *testing.T) {
	tr := &workload.Trace{Name: "thin", Nodes: 2, NodeMemGB: 8, Jobs: []workload.Job{
		jb(0, 0, 1, 0.1, 0.8, 100),
	}}
	cl := cluster.New([]cluster.NodeSpec{
		cluster.Spec(0.5, 0.5),
		cluster.Spec(1, 1),
	})
	buildSimCluster(t, tr, cl, func(ctl *sim.Controller) {
		nodes, ok := GreedyPlace(ctl, 0)
		if !ok {
			t.Fatal("placement failed")
		}
		if nodes[0] != 1 {
			t.Errorf("0.8-memory task on 0.5-capacity node: %v", nodes)
		}
	})
}
