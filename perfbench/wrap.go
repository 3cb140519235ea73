package main

import (
	"fmt"
	"strings"
	"sync"

	dfrs "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/sched"
	"repro/internal/sched/mcb"
	"repro/internal/sim"
	"repro/internal/vectorpack"
	"repro/internal/workload"
)

// tracedPrefix marks the registry names of the forwarding wrappers. The
// wrappers report the inner Name, so only registry-keyed labels (campaign
// cell keys, federation member algorithms and the dispatcher label) carry
// the prefix; canonical output strips it before hashing.
const tracedPrefix = "traced:"

// traced returns the registry name of the forwarding wrapper around name.
func traced(name string) string { return tracedPrefix + name }

var (
	activeMu sync.Mutex
	active   *session // the session the wrappers record into; nil outside a traced run
)

func setActive(s *session) {
	activeMu.Lock()
	active = s
	activeMu.Unlock()
}

func activeSession() *session {
	activeMu.Lock()
	defer activeMu.Unlock()
	return active
}

// registerWrappers registers a forwarding scheduler for each algorithm
// and a forwarding dispatcher for each dispatch policy, under the traced
// names. Registration is process-wide and happens once per name.
func registerWrappers(algs, disps []string) error {
	for _, name := range algs {
		if dfrs.KnownAlgorithm(traced(name)) {
			continue
		}
		name := name
		if err := dfrs.RegisterAlgorithm(traced(name), func() dfrs.Scheduler {
			s, err := newForwardingScheduler(name, activeSession())
			if err != nil {
				// The name was resolved when the wrapper was registered,
				// so only a registry bug lands here.
				panic(err)
			}
			return s
		}); err != nil {
			return err
		}
	}
	known := map[string]bool{}
	for _, d := range dfrs.Dispatchers() {
		known[d] = true
	}
	for _, name := range disps {
		if known[traced(name)] {
			continue
		}
		name := name
		if err := dfrs.RegisterDispatcher(traced(name), func() dfrs.Dispatcher {
			d, err := newForwardingDispatcher(name, activeSession())
			if err != nil {
				panic(err)
			}
			return d
		}); err != nil {
			return err
		}
	}
	return nil
}

// family classifies an algorithm into the scheduler family whose hooks its
// spans are attributed to.
func family(alg string) string {
	alg = strings.TrimPrefix(alg, tracedPrefix)
	switch {
	case strings.HasPrefix(alg, "dynmcb8"):
		return "mcb"
	case strings.HasPrefix(alg, "greedy"):
		return "greedy"
	case alg == "fcfs", alg == "easy", alg == "conservative":
		return "batch"
	}
	return "other"
}

// forwardingScheduler passes every hook to the scheduler it wraps. Before
// each hook that makes a DYNMCB8 scheduler repack, it snapshots the job set
// the repack will see, for the allocator replay. It never touches the
// inner scheduler's packer.
type forwardingScheduler struct {
	inner sim.Scheduler
	snap  *snapshotter // nil for other families
}

// checkingScheduler is a forwardingScheduler around a scheduler that
// implements sim.CapacityChecker, which the simulator detects by type.
type checkingScheduler struct {
	*forwardingScheduler
	chk sim.CapacityChecker
}

// CheckJob implements sim.CapacityChecker.
func (c checkingScheduler) CheckJob(cl *cluster.Cluster, j workload.Job) error {
	return c.chk.CheckJob(cl, j)
}

// newForwardingScheduler wraps a fresh instance of the named scheduler.
// With a session, DYNMCB8 variants record allocator snapshots into it.
func newForwardingScheduler(name string, s *session) (sim.Scheduler, error) {
	inner, err := sched.New(name)
	if err != nil {
		return nil, err
	}
	f := &forwardingScheduler{inner: inner}
	if s != nil && family(name) == "mcb" {
		f.snap = &snapshotter{
			everyEvent: name == "dynmcb8",
			stretch:    strings.Contains(name, "stretch"),
		}
		s.mu.Lock()
		s.snaps = append(s.snaps, f.snap)
		s.mu.Unlock()
	}
	if chk, ok := inner.(sim.CapacityChecker); ok {
		return checkingScheduler{f, chk}, nil
	}
	return f, nil
}

func (f *forwardingScheduler) Name() string { return f.inner.Name() }

func (f *forwardingScheduler) Init(ctl *sim.Controller) {
	if f.snap != nil {
		f.snap.cl = ctl.Cluster()
	}
	f.inner.Init(ctl)
}

func (f *forwardingScheduler) OnArrival(ctl *sim.Controller, jid int) {
	if f.snap != nil && f.snap.everyEvent {
		f.snap.take(ctl)
	}
	f.inner.OnArrival(ctl, jid)
}

func (f *forwardingScheduler) OnCompletion(ctl *sim.Controller, jid int) {
	if f.snap != nil && f.snap.everyEvent {
		f.snap.take(ctl)
	}
	f.inner.OnCompletion(ctl, jid)
}

// OnTimer snapshots before every timer of a periodic variant: DYNMCB8 arms
// no timer other than its scheduling tick.
func (f *forwardingScheduler) OnTimer(ctl *sim.Controller, tag int64) {
	if f.snap != nil && !f.snap.everyEvent {
		f.snap.take(ctl)
	}
	f.inner.OnTimer(ctl, tag)
}

// snapshotter records, per repack, the ids of the jobs in system (and for
// the stretch variant their flow and virtual times), in one flat arena.
// Job specs are static, so they are stored once per job id.
type snapshotter struct {
	everyEvent bool // plain DYNMCB8 repacks on arrivals and completions
	stretch    bool
	cl         *cluster.Cluster
	specs      []core.JobSpec // by job id; Tasks == 0 marks an unseen id
	jids       []int32
	ends       []int32 // end offset of each snapshot in jids
	flow, virt []float64
	scratch    []int
}

func (p *snapshotter) take(ctl *sim.Controller) {
	p.scratch = ctl.AppendActiveJobs(p.scratch[:0])
	now := ctl.Now()
	for _, jid := range p.scratch {
		for len(p.specs) <= jid {
			p.specs = append(p.specs, core.JobSpec{})
		}
		if p.specs[jid].Tasks == 0 {
			p.specs[jid] = sched.SpecOf(ctl, jid)
		}
		p.jids = append(p.jids, int32(jid))
		if p.stretch {
			p.flow = append(p.flow, now-ctl.JobRef(jid).Submit)
			p.virt = append(p.virt, ctl.VirtualTime(jid))
		}
	}
	p.ends = append(p.ends, int32(len(p.jids)))
}

// replay re-solves every recorded snapshot in order through one
// workspace with the MCB8 packer, recording one core.solve span per
// non-empty snapshot under a core.replay root span.
func replay(s *session, snaps []*snapshotter) {
	var (
		ws     core.Workspace
		specs  []core.JobSpec
		states []core.StretchState
	)
	name := s.id("core.solve")
	start := s.now()
	var buf []span
	for _, p := range snaps {
		lo := int32(0)
		for _, hi := range p.ends {
			n := hi - lo
			if n == 0 {
				continue
			}
			var ok bool
			if p.stretch {
				states = states[:0]
				for i := lo; i < hi; i++ {
					states = append(states, core.StretchState{JobSpec: p.specs[p.jids[i]], FlowTime: p.flow[i], VirtualTime: p.virt[i]})
				}
				t0 := s.now()
				_, ok = ws.MinEstimatedStretch(states, p.cl, vectorpack.MCB8{}, mcb.DefaultPeriod)
				buf = append(buf, span{name: name, start: t0, end: s.now(), arg: n, flag: !ok})
			} else {
				specs = specs[:0]
				for i := lo; i < hi; i++ {
					specs = append(specs, p.specs[p.jids[i]])
				}
				t0 := s.now()
				_, ok = ws.MaxMinYield(specs, p.cl, vectorpack.MCB8{})
				buf = append(buf, span{name: name, start: t0, end: s.now(), arg: n, flag: !ok})
			}
			lo = hi
		}
	}
	s.add(span{name: s.id("core.replay"), start: start, end: s.now()}, buf)
}

// tracedDispatcher passes every routing decision to the policy it wraps
// and times it. It claims statelessness only through statelessDispatcher,
// and only when the inner policy does.
type tracedDispatcher struct {
	inner federation.Dispatcher
	s     *session
	name  int32
	buf   []span
}

// statelessDispatcher forwards the inner policy's StatelessDispatcher
// promise.
type statelessDispatcher struct {
	*tracedDispatcher
	sl federation.StatelessDispatcher
}

func (d statelessDispatcher) Stateless() bool { return d.sl.Stateless() }

// newForwardingDispatcher wraps a fresh instance of the named policy.
func newForwardingDispatcher(name string, s *session) (federation.Dispatcher, error) {
	if s == nil {
		return nil, fmt.Errorf("perfbench: traced dispatcher %q used outside a traced run", name)
	}
	inner, err := federation.ByName(name)
	if err != nil {
		return nil, err
	}
	d := &tracedDispatcher{inner: inner, s: s, name: s.id("federation.dispatch")}
	s.mu.Lock()
	s.disps = append(s.disps, d)
	s.mu.Unlock()
	if sl, ok := inner.(federation.StatelessDispatcher); ok {
		return statelessDispatcher{d, sl}, nil
	}
	return d, nil
}

func (d *tracedDispatcher) Name() string { return d.inner.Name() }

func (d *tracedDispatcher) Dispatch(j workload.Job, views []federation.ClusterView) int {
	t0 := d.s.now()
	i := d.inner.Dispatch(j, views)
	d.buf = append(d.buf, span{name: d.name, start: t0, end: d.s.now()})
	return i
}
