package federation

import (
	"math"
	"strings"
	"testing"

	_ "repro/internal/sched/greedy"
	"repro/internal/workload"
)

// TestNewRejectsBadPenalty pins the eager penalty check: a negative, NaN
// or infinite penalty must fail construction, before any event runs.
func TestNewRejectsBadPenalty(t *testing.T) {
	tr := &workload.Trace{Name: "t", Nodes: 4, Jobs: []workload.Job{
		{ID: 0, Tasks: 1, CPUNeed: 0.5, MemReq: 0.25, ExecTime: 10},
	}}
	spec := func(penalty float64) Spec {
		return Spec{Members: []MemberSpec{{Nodes: 4}}, Algorithm: "greedy-pmtn", Penalty: penalty}
	}
	for _, p := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := New(spec(p), workload.NewSliceSource(tr))
		if err == nil || !strings.Contains(err.Error(), "penalty") {
			t.Errorf("penalty %g: got error %v, want a penalty error", p, err)
		}
	}
	for _, p := range []float64{0, 300} {
		if _, err := New(spec(p), workload.NewSliceSource(tr)); err != nil {
			t.Errorf("penalty %g rejected: %v", p, err)
		}
	}
}
