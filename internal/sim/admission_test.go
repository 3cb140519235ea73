package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// admissionModes runs one trace through both ways a job can reach the
// simulator: materialized (Config.Trace.Jobs) and streamed (Config.Source
// over a metadata-only trace).
var admissionModes = []struct {
	name string
	cfg  func(tr *workload.Trace) Config
}{
	{"materialized", func(tr *workload.Trace) Config { return Config{Trace: tr} }},
	{"source", func(tr *workload.Trace) Config {
		meta := &workload.Trace{Name: tr.Name, Nodes: tr.Nodes, NodeMemGB: tr.NodeMemGB}
		return Config{Trace: meta, Source: workload.NewSliceSource(tr)}
	}},
}

// eventLog renders observer events as "time kind subject" lines, dropping
// the wall-clock and jobs-in-system fields.
func eventLog(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		if e.Kind == EvSchedulerInvoked {
			out[i] = fmt.Sprintf("%g hook %s", e.Time, e.Hook)
		} else {
			out[i] = fmt.Sprintf("%g %s %d", e.Time, e.Kind, e.JID)
		}
	}
	return out
}

// TestArrivalPrecedence pins the event order at an instant where an
// arrival, a completion and a timer coincide. Job 0 (submit 0, 100 s at
// yield 1) completes at t=100; job 1 is submitted at t=100; Init arms a
// timer for t=100. The arrival fires first, then the timer (armed before
// the tentative completion was last re-armed), then the completion.
func TestArrivalPrecedence(t *testing.T) {
	tr := trace(job(0, 0, 1, 100), job(1, 100, 1, 100))
	want := []string{
		"0 hook init",
		"0 submitted 0", "0 started 0", "0 hook arrival",
		"100 submitted 1", "100 started 1", "100 hook arrival",
		"100 hook timer",
		"100 completed 0", "100 hook completion",
		"200 completed 1", "200 hook completion",
	}
	for _, mode := range admissionModes {
		s := startImmediately(1)
		s.onInit = func(ctl *Controller) { ctl.SetTimer(100, 7) }
		rec := &Recorder{}
		cfg := mode.cfg(tr)
		cfg.Observer = rec
		mustRun(t, cfg, s)
		if got := eventLog(rec.Events()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: event order\n got %q\nwant %q", mode.name, got, want)
		}
	}
}

// TestCompletedJobsVisibility pins the one difference between the two
// admission modes. Job 0 completes at t=100 and job 1 at t=150. In job 1's
// completion hook a materialized run still shows job 0 as Done, while a
// Source-fed run has recycled job 0's record, so only job 1 (whose hooks
// are running) is listed. Both count every admitted jid.
func TestCompletedJobsVisibility(t *testing.T) {
	tr := trace(job(0, 0, 1, 100), job(1, 50, 1, 100))
	for _, mode := range admissionModes {
		var checked bool
		s := startImmediately(1)
		s.onCompletion = func(ctl *Controller, jid int) {
			if jid != 1 {
				return
			}
			checked = true
			if got := ctl.NumJobs(); got != 2 {
				t.Errorf("%s: NumJobs = %d, want 2", mode.name, got)
			}
			want := []int{0, 1}
			if mode.name == "source" {
				want = []int{1}
			}
			if got := ctl.JobsInState(Done); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: JobsInState(Done) = %v, want %v", mode.name, got, want)
			}
			if mode.name == "materialized" {
				if ji := ctl.Job(0); ji.State != Done || ji.Remaining != 0 {
					t.Errorf("materialized: Job(0) = %+v, want Done with nothing remaining", ji)
				}
			}
		}
		mustRun(t, mode.cfg(tr), s)
		if !checked {
			t.Errorf("%s: completion hook of job 1 never ran", mode.name)
		}
	}
}

// TestInjectJobIntoMaterialized pins that injection shares the one
// admission path: a job injected behind a materialized trace runs like any
// other, and one submitted before the trace's last job is rejected.
func TestInjectJobIntoMaterialized(t *testing.T) {
	simulator, err := New(Config{Trace: trace(job(0, 0, 1, 100), job(1, 50, 1, 10))}, startImmediately(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := simulator.InjectJob(job(7, 20, 1, 10)); err == nil {
		t.Error("injection before the trace's last submit accepted")
	}
	if err := simulator.InjectJob(job(8, 200, 1, 10)); err != nil {
		t.Fatal(err)
	}
	res, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 || res.Jobs[2].Job.ID != 8 || res.Jobs[2].Finish != 210 {
		t.Errorf("jobs = %+v, want job 8 finishing at 210 after the trace", res.Jobs)
	}
}
