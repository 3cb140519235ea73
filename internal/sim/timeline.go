package sim

import (
	"fmt"
	"sort"
)

// TimelineKind labels one recorded scheduling transition.
type TimelineKind int

// Timeline event kinds, in rough lifecycle order.
const (
	TlSubmit TimelineKind = iota
	TlStart
	TlYield
	TlPause
	TlResume
	TlMigrate
	TlFinish
)

// String returns the lowercase kind name.
func (k TimelineKind) String() string {
	switch k {
	case TlSubmit:
		return "submit"
	case TlStart:
		return "start"
	case TlYield:
		return "yield"
	case TlPause:
		return "pause"
	case TlResume:
		return "resume"
	case TlMigrate:
		return "migrate"
	case TlFinish:
		return "finish"
	}
	return fmt.Sprintf("TimelineKind(%d)", int(k))
}

// TimelineEvent is one recorded transition of one job. Yield carries the
// job's yield after the transition; FrozenUntil is non-zero for resumes and
// migrations under a rescheduling penalty.
type TimelineEvent struct {
	Time        float64
	JID         int
	Kind        TimelineKind
	Yield       float64
	FrozenUntil float64
}

// record appends a timeline event when recording is enabled.
func (s *Simulator) record(kind TimelineKind, jid int, yield, frozenUntil float64) {
	if !s.cfg.RecordTimeline {
		return
	}
	s.result.Timeline = append(s.result.Timeline, TimelineEvent{
		Time: s.now, JID: jid, Kind: kind, Yield: yield, FrozenUntil: frozenUntil,
	})
}

// SegmentState classifies one interval of a job's life.
type SegmentState int

// Segment states.
const (
	SegWaiting SegmentState = iota // submitted, not yet dispatched
	SegRunning                     // holding nodes and progressing at Yield
	SegFrozen                      // holding nodes, rescheduling penalty
	SegPaused                      // preempted, holding nothing
)

// String returns the lowercase state name.
func (s SegmentState) String() string {
	switch s {
	case SegWaiting:
		return "waiting"
	case SegRunning:
		return "running"
	case SegFrozen:
		return "frozen"
	case SegPaused:
		return "paused"
	}
	return fmt.Sprintf("SegmentState(%d)", int(s))
}

// Segment is one homogeneous interval of a job's timeline.
type Segment struct {
	From, To float64
	State    SegmentState
	Yield    float64 // meaningful for SegRunning
}

// JobSegments reconstructs job jid's life as a sequence of contiguous
// segments from the recorded timeline. It returns nil when the run did not
// record a timeline or the job never appears.
func (r *Result) JobSegments(jid int) []Segment {
	var evs []TimelineEvent
	for _, e := range r.Timeline {
		if e.JID == jid {
			evs = append(evs, e)
		}
	}
	if len(evs) == 0 {
		return nil
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })

	var segs []Segment
	cur := Segment{From: evs[0].Time, State: SegWaiting}
	closeAt := func(t float64) {
		if t > cur.From {
			cur.To = t
			segs = append(segs, cur)
		}
	}
	open := func(t float64, st SegmentState, y float64) {
		cur = Segment{From: t, State: st, Yield: y}
	}
	for _, e := range evs {
		switch e.Kind {
		case TlSubmit:
			// Already open.
		case TlStart:
			closeAt(e.Time)
			open(e.Time, SegRunning, e.Yield)
		case TlYield:
			if cur.State == SegRunning && cur.Yield != e.Yield {
				closeAt(e.Time)
				open(e.Time, SegRunning, e.Yield)
			} else if cur.State == SegFrozen {
				// Yield set during a freeze: keep the freeze, update the
				// eventual yield.
				cur.Yield = e.Yield
			}
		case TlPause:
			closeAt(e.Time)
			open(e.Time, SegPaused, 0)
		case TlResume, TlMigrate:
			closeAt(e.Time)
			if e.FrozenUntil > e.Time {
				open(e.Time, SegFrozen, e.Yield)
			} else {
				open(e.Time, SegRunning, e.Yield)
			}
		case TlFinish:
			closeAt(e.Time)
			cur = Segment{From: e.Time, To: e.Time, State: SegRunning}
		}
	}
	// A freeze ends silently when the clock passes FrozenUntil, before the
	// job's next transition or finish, so a frozen segment runs until the
	// next event closes it; split it at its thaw instant here.
	out := segs[:0:0]
	for _, seg := range segs {
		if seg.State != SegFrozen {
			out = append(out, seg)
			continue
		}
		thaw := seg.From // frozen segments record Yield; find thaw from events
		for _, e := range evs {
			if (e.Kind == TlResume || e.Kind == TlMigrate) && e.Time == seg.From {
				thaw = e.FrozenUntil
				break
			}
		}
		if thaw > seg.From && thaw < seg.To {
			out = append(out, Segment{From: seg.From, To: thaw, State: SegFrozen})
			out = append(out, Segment{From: thaw, To: seg.To, State: SegRunning, Yield: seg.Yield})
		} else {
			out = append(out, seg)
		}
	}
	return out
}
