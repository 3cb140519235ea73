package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by a traced run. Times are
// nanoseconds since the session epoch; parent indexes the session's span
// list (-1 for a root). arg carries one count per span kind: jobs in system
// for scheduler hooks, jobs in the instance for allocator solves. flag marks
// a memory-infeasible first solve.
type span struct {
	name   int32
	parent int32
	start  int64
	end    int64
	arg    int32
	flag   bool
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// session is the in-memory span store of one traced run. Spans are first
// buffered by their producer (one observer per simulation, one dispatcher
// per federation) and merged here under the lock when that producer
// finishes, so the hot callbacks never contend.
type session struct {
	epoch time.Time

	mu    sync.Mutex
	names []string
	ids   map[string]int32
	spans []span

	// Producers created by the forwarding wrappers since the last take.
	snaps []*snapshotter
	disps []*tracedDispatcher
	// cells maps a campaign cell key to its observer until the cell's
	// record arrives.
	cells map[string]*hookObserver
}

func newSession() *session {
	return &session{epoch: time.Now(), ids: map[string]int32{}, cells: map[string]*hookObserver{}}
}

// now is the time since the epoch, on the monotonic clock.
func (s *session) now() int64 { return int64(time.Since(s.epoch)) }

// id interns a span name.
func (s *session) id(name string) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[name]; ok {
		return id
	}
	id := int32(len(s.names))
	s.names = append(s.names, name)
	s.ids[name] = id
	return id
}

// add appends a parent span and its buffered children, returning the
// parent's index.
func (s *session) add(parent span, children []span) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := int32(len(s.spans))
	parent.parent = -1
	s.spans = append(s.spans, parent)
	for _, c := range children {
		c.parent = p
		s.spans = append(s.spans, c)
	}
	return p
}

// addChildren appends spans under an existing parent.
func (s *session) addChildren(parent int32, children []span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range children {
		c.parent = parent
		s.spans = append(s.spans, c)
	}
}

// takeSnapshots hands over the allocator snapshotters created since the
// last call.
func (s *session) takeSnapshots() []*snapshotter {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps := s.snaps
	s.snaps = nil
	return snaps
}

// takeDispatchers hands over the forwarding dispatchers created since the
// last call.
func (s *session) takeDispatchers() []*tracedDispatcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	disps := s.disps
	s.disps = nil
	return disps
}

// byName returns the spans whose name satisfies match.
func (s *session) byName(match func(string) bool) []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []span
	for _, sp := range s.spans {
		if match(s.names[sp.name]) {
			out = append(out, sp)
		}
	}
	return out
}

// write stores every span as one tab-separated line:
// index, parent, name, start ns, end ns, arg, flag.
func (s *session) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tparent\tname\tstart_ns\tend_ns\targ\tflag")
	s.mu.Lock()
	for i, sp := range s.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%t\n", i, sp.parent, s.names[sp.name], sp.start, sp.end, sp.arg, sp.flag)
	}
	s.mu.Unlock()
	return w.Flush()
}

// hookObserver is the sim.Observer of one traced simulation (a campaign
// cell, or every member of a federated run, whose callbacks the federation
// serializes). It turns SchedulerInvoked into
// hook spans, starting them elapsed before the callback, and ignores the
// job transitions.
type hookObserver struct {
	s     *session
	start int64
	hooks [4]int32 // init, arrival, completion, timer
	buf   []span
}

// newHookObserver returns an observer whose spans are named
// "sched.<family>.<hook>".
func (s *session) newHookObserver(family string) *hookObserver {
	o := &hookObserver{s: s, start: s.now()}
	for i, h := range []string{"init", "arrival", "completion", "timer"} {
		o.hooks[i] = s.id("sched." + family + "." + h)
	}
	return o
}

func (o *hookObserver) JobSubmitted(float64, int)          {}
func (o *hookObserver) JobStarted(float64, int, []int)     {}
func (o *hookObserver) JobPreempted(float64, int)          {}
func (o *hookObserver) JobMigrated(float64, int, []int)    {}
func (o *hookObserver) JobCompleted(float64, int, float64) {}

func (o *hookObserver) SchedulerInvoked(_ float64, hook string, jobsInSystem int, elapsed time.Duration) {
	end := o.s.now()
	var name int32
	switch hook {
	case "init":
		name = o.hooks[0]
	case "arrival":
		name = o.hooks[1]
	case "completion":
		name = o.hooks[2]
	case "timer":
		name = o.hooks[3]
	default:
		return // the simulator invokes no other hook
	}
	o.buf = append(o.buf, span{name: name, start: end - int64(elapsed), end: end, arg: int32(jobsInSystem)})
}

// finish records the simulation's own span, named name, from the
// observer's creation to now, with the hook spans as its children, and
// returns the simulation span's index.
func (o *hookObserver) finish(name string) int32 {
	return o.s.add(span{name: o.s.id(name), start: o.start, end: o.s.now()}, o.buf)
}
