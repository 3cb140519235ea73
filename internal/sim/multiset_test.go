package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/workload"
)

// controllerOn returns the controller of an idle simulator on an n-node
// homogeneous cluster, for exercising Controller methods directly.
func controllerOn(t testing.TB, n int) *Controller {
	t.Helper()
	s, err := New(Config{Trace: &workload.Trace{Name: "idle", Nodes: n, NodeMemGB: 8}}, &script{})
	if err != nil {
		t.Fatal(err)
	}
	return &s.ctl
}

func TestSameMultiset(t *testing.T) {
	ctl := controllerOn(t, 4)
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 2}, []int{2, 1}, true},
		{[]int{1, 1, 2}, []int{1, 2, 2}, false},
		{[]int{}, []int{}, true},
		{[]int{1}, []int{1, 1}, false},
		{[]int{3, 3}, []int{3, 3}, true},
	}
	for _, c := range cases {
		if got := ctl.SameMultiset(c.a, c.b); got != c.want {
			t.Errorf("SameMultiset(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// mapSameMultiset is the counting-map comparison the node-indexed counter
// replaced, kept here as the reference.
func mapSameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[int]int{}
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
		if count[x] < 0 {
			return false
		}
	}
	return true
}

// Property: SameMultiset agrees with the map reference on every length
// from 0 to 128, with heavy duplication, and leaves its scratch counter all
// zero whatever it returns.
func TestSameMultisetMatchesMapReference(t *testing.T) {
	const n = 40
	ctl := controllerOn(t, n)
	rng := rand.New(rand.NewSource(1))
	for length := 0; length <= 128; length++ {
		for trial := 0; trial < 20; trial++ {
			// A small id range forces repeated nodes.
			span := 1 + rng.Intn(n)
			a := make([]int, length)
			for i := range a {
				a[i] = rng.Intn(span)
			}
			b := append([]int(nil), a...)
			switch trial % 4 {
			case 0: // identical sequence
			case 1: // permutation
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			case 2: // permutation with one entry moved to another node
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				if len(b) > 0 {
					b[rng.Intn(len(b))] = rng.Intn(n)
				}
			case 3: // one entry dropped or added
				if len(b) > 0 && rng.Intn(2) == 0 {
					b = b[1:]
				} else {
					b = append(b, rng.Intn(n))
				}
			}
			want := mapSameMultiset(a, b)
			if got := ctl.SameMultiset(a, b); got != want {
				t.Fatalf("SameMultiset(%v, %v) = %v, want %v", a, b, got, want)
			}
			for node, c := range ctl.sim.nodeCount {
				if c != 0 {
					t.Fatalf("after SameMultiset(%v, %v): nodeCount[%d] = %d, want 0", a, b, node, c)
				}
			}
		}
	}
}

// Start, Resume and Migrate reject node ids outside the cluster with a
// sim: panic naming the job, the node and the cluster size, before any
// state changes.
func TestPlacementNodeIDsRangeChecked(t *testing.T) {
	const n = 4
	catch := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	for _, method := range []string{"Start", "Resume", "Migrate"} {
		for _, bad := range []int{-1, n} {
			t.Run(fmt.Sprintf("%s/%d", method, bad), func(t *testing.T) {
				var msg string
				s := &script{
					onArrival: func(ctl *Controller, jid int) {
						if method == "Start" {
							msg = catch(func() { ctl.Start(jid, []int{bad}) })
						}
						ctl.Start(jid, []int{0})
						ctl.SetYield(jid, 1)
					},
					onInit: func(ctl *Controller) { ctl.SetTimer(10, 1) },
					onTimer: func(ctl *Controller, _ int64) {
						switch method {
						case "Resume":
							ctl.Pause(0)
							msg = catch(func() { ctl.Resume(0, []int{bad}) })
							ctl.Resume(0, []int{0})
						case "Migrate":
							msg = catch(func() { ctl.Migrate(0, []int{bad}) })
						}
						ctl.SetYield(0, 1)
					},
				}
				mustRun(t, Config{Trace: trace(job(0, 0, 1, 100))}, s)
				if !strings.HasPrefix(msg, "sim: ") {
					t.Fatalf("%s on node %d: panic %q, want a sim: message", method, bad, msg)
				}
				for _, want := range []string{method, "job 0", fmt.Sprintf("node %d", bad), fmt.Sprintf("%d-node", n)} {
					if !strings.Contains(msg, want) {
						t.Errorf("panic %q does not mention %q", msg, want)
					}
				}
			})
		}
	}
}

// BenchmarkSameMultiset measures the node-multiset comparison on the shapes
// the simulator actually sees: repacks usually hand a job back the exact
// node list it already held (the element-wise equality fast path), small
// gangs take the quadratic path, and large permuted placements count
// through the node-indexed counter without allocating.
func BenchmarkSameMultiset(b *testing.B) {
	perm := func(n, rot int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = (i + rot) % n
		}
		return s
	}
	ctl := controllerOn(b, 128)
	cases := []struct {
		name string
		x, y []int
	}{
		{"equal4", perm(4, 0), perm(4, 0)},
		{"permuted4", perm(4, 0), perm(4, 1)},
		{"equal32", perm(32, 0), perm(32, 0)},
		{"permuted32", perm(32, 0), perm(32, 7)},
		{"permuted128", perm(128, 0), perm(128, 31)},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !ctl.SameMultiset(c.x, c.y) {
					b.Fatal("multisets should match")
				}
			}
		})
	}
}
