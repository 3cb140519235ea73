package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/workload"
)

// setupRepeats is how many times a timed run sets up its input; setup_s
// is the median.
const setupRepeats = 3

// report is the final line of a run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations.
type tally struct{ attempted, failed int }

// add counts one run's operations and output check. A run that returned an
// error counts as one failed operation.
func (t *tally) add(o *outcome, err error) {
	if err != nil {
		t.attempted++
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
		return
	}
	t.attempted += o.ops + 1
	if n := len(o.problems); n > 0 {
		t.failed += min(n, o.ops+1)
		for i, p := range o.problems {
			if i == 5 {
				fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", n-i)
				break
			}
			fmt.Fprintln(os.Stderr, "perfbench: output check:", p)
		}
	}
}

// compare counts the comparison of two runs' outputs as one operation.
func (t *tally) compare(what string, a, b *outcome) {
	if a == nil || b == nil || a.digest != b.digest {
		t.check(what, []string{"outputs differ"})
		return
	}
	t.check(what, nil)
}

// check counts one check as one operation, failed when it found problems.
func (t *tally) check(what string, problems []string) {
	t.attempted++
	if len(problems) > 0 {
		t.failed++
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", what, p)
		}
	}
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", defaultSeed, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "how long a timed run keeps repeating the workload")
	trace := flag.Int("trace", 0, "1 runs once untraced and once traced and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory the span file of a traced run is written to")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ctx := context.Background()
	var (
		rep *report
		err error
	)
	if *trace == 1 {
		rep, err = tracedRun(ctx, w, *seed, *out)
	} else {
		rep, err = timedRun(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"host": hostShape(), "workload": w.name, "seed": *seed}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(rep); err != nil {
		os.Exit(1)
	}
}

// runPiece runs piece p once and computes its outcome, turning a panic on
// the calling goroutine into an error.
func runPiece(ctx context.Context, p piece, s *session) (o *outcome, wall time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	t0 := time.Now()
	result, err := p.run(ctx, s)
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	return result(), wall, nil
}

// warmUp runs the workload's small fixed warm-up piece once, so the first
// timed piece does not pay for cold caches and lazy initialisation.
func warmUp(ctx context.Context, w bench, t *tally) error {
	p, err := w.warm()
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	o, _, err := runPiece(ctx, p, nil)
	t.add(o, err)
	return nil
}

// prepare sets up piece i with the garbage of earlier pieces collected
// first, and times it.
func prepare(w bench, seed uint64, i int) (piece, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	p, err := w.prepare(seed, i)
	if err != nil {
		return nil, 0, fmt.Errorf("%s set-up of piece %d: %w", w.name, i, err)
	}
	return p, time.Since(t0), nil
}

// timedRun sets up and runs pieces 0, 1, 2, ... of the seed's batch, each
// timed on its own, until the workload's minPieces have run and the next
// would overrun the time budget. It reports the geometric mean of the
// piece times, the mean of their peak heaps and the median set-up time.
func timedRun(ctx context.Context, w bench, seed uint64, budget time.Duration) (*report, error) {
	var t tally
	if err := warmUp(ctx, w, &t); err != nil {
		return nil, err
	}
	var (
		walls, peaks, setups []float64
		digests              []string
	)
	start := time.Now()
	for i := 0; ; i++ {
		p, took, err := prepare(w, seed, i)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		runtime.GC()
		heap := startHeapSampler()
		o, wall, err := runPiece(ctx, p, nil)
		walls = append(walls, wall.Seconds())
		peaks = append(peaks, heap.finish())
		if err == nil && i < refPieces {
			digests = append(digests, o.digest)
		}
		t.add(o, err)
		next := time.Since(start) + time.Duration((geomean(walls)+median(setups))*float64(time.Second))
		if i+1 >= w.minPieces && next > budget {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d pieces, wall geometric mean %.4f s, min %.4f s, max %.4f s\n",
		w.name, len(walls), geomean(walls), slices.Min(walls), slices.Max(walls))
	fmt.Fprintf(os.Stderr, "perfbench: piece walls %.4f\n", walls)
	fmt.Fprintf(os.Stderr, "perfbench: piece peak heaps %.3f\n", peaks)
	if seed == defaultSeed {
		verify(ctx, w, digests, &t)
	}
	return &report{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: endToEnd(map[string]float64{
			"wall_s":        geomean(walls),
			"setup_s":       median(setups),
			"peak_heap_mib": mean(peaks),
			"ok_frac":       1 - float64(t.failed)/float64(t.attempted),
		}),
	}, nil
}

// verify runs the default seed's extra checks, untimed: the digest of the
// first refPieces outputs against the reference, and for tablei the
// BenchmarkTableI grid against its published figures.
func verify(ctx context.Context, w bench, digests []string, t *tally) {
	probs := checkReference(w.name, digests)
	t.check(w.name+" reference", probs)
	if w.name == "tablei" {
		t.check("BenchmarkTableI figures", verifyTableI(ctx))
	}
}

// endToEndUnits are the end-to-end metrics of a timed run and their units.
// failed_frac is carried by the report's attempted and failed counts; the
// metric is its complement, ok_frac, since an end-to-end metric must never
// read 0.
func endToEndUnits() map[string]string {
	return map[string]string{"wall_s": "s", "setup_s": "s", "peak_heap_mib": "MiB", "ok_frac": "frac"}
}

func endToEnd(values map[string]float64) map[string]metric {
	out := map[string]metric{}
	for name, unit := range endToEndUnits() {
		out[name] = metric{values[name], unit}
	}
	return out
}

// tracedPieces is how many pieces a traced run covers. Its per-layer
// figures carry no bound, so it needs fewer pieces than a timed run.
const tracedPieces = 16

// tracedRun runs each of the first tracedPieces pieces once untraced and
// once through the forwarding wrappers with spans recorded (and, for a
// federation, once more on the serial loop), checks that every run of a
// piece produces the same outputs, replays the allocator snapshots, writes
// the spans out and reports the per-layer metrics.
func tracedRun(ctx context.Context, w bench, seed uint64, outDir string) (*report, error) {
	if err := registerWrappers(w.algs, w.disps); err != nil {
		return nil, err
	}
	var t tally
	if err := warmUp(ctx, w, &t); err != nil {
		return nil, err
	}
	s := newSession()
	f := tracedFacts{s: s, workers: tableIWorkers}
	var gens, parse []float64
	var digests []string
	for i := 0; i < tracedPieces; i++ {
		p, took, err := prepare(w, seed, i)
		if err != nil {
			return nil, err
		}
		gens = append(gens, took.Seconds())
		if ns, ok := parseNsPerJob(p); ok {
			parse = append(parse, ns)
		}

		plain := measure(ctx, p, nil, &f.wall, &f.plain, &t)
		if plain != nil {
			if i < refPieces {
				digests = append(digests, plain.digest)
			}
			f.events += plain.events
			if plain.dispatched != nil {
				f.dispatched = append(f.dispatched, plain.dispatched)
			}
		}
		setActive(s)
		tr := measure(ctx, p, s, &f.tracedWall, &f.traced, &t)
		setActive(nil)
		t.compare(fmt.Sprintf("piece %d traced", i), plain, tr)
		if fi, ok := p.(*fedInstance); ok {
			serial := measure(ctx, fi.serial(), nil, &f.serialWall, nil, &t)
			t.compare(fmt.Sprintf("piece %d serial federation", i), plain, serial)
		}
	}
	f.gen = median(gens)
	f.parseNs = median(parse)
	if seed == defaultSeed {
		verify(ctx, w, digests, &t)
	}
	replay(s, s.takeSnapshots())

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, seed))
	if err := s.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return &report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: layerMetrics(f)}, nil
}

// measure runs piece p once, adding its wall time and process counters to
// wall and proc (unless nil) and its operations to t, and returns its
// outcome (nil on error).
func measure(ctx context.Context, p piece, s *session, wall *float64, proc *procStats, t *tally) *outcome {
	runtime.GC()
	p0 := readProc()
	o, took, err := runPiece(ctx, p, s)
	*wall += took.Seconds()
	if proc != nil {
		proc.add(p0, readProc())
	}
	t.add(o, err)
	return o
}

// parseNsPerJob encodes a federation piece's trace and times
// workload.TraceReader over the bytes, in ns per job. ok is false for a
// piece whose traces are generated inside the run.
func parseNsPerJob(p piece) (ns float64, ok bool) {
	fi, isFed := p.(*fedInstance)
	if !isFed {
		return 0, false
	}
	var buf bytes.Buffer
	if err := fi.trace.Encode(&buf); err != nil {
		return 0, false
	}
	data := buf.Bytes()
	t0 := time.Now()
	tr, err := workload.StreamTrace(bytes.NewReader(data))
	if err != nil {
		return 0, false
	}
	jobs := 0
	for {
		_, more, err := tr.Next()
		if err != nil {
			return 0, false
		}
		if !more {
			break
		}
		jobs++
	}
	if jobs == 0 {
		return 0, false
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(jobs), true
}
