// Command perfbench is the repository's benchmark: three workloads that
// together exercise every layer of the scheduler stack, timed end to end,
// with their outputs checked, and a traced mode that shows where the time
// goes layer by layer.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload tablei --seed 42 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// host shape (GOMAXPROCS, CPU count and model, Go version, campaign pool
// and federation worker counts) with the workload and seed. Diagnostics go
// to standard error.
//
// # Workloads
//
// Every workload draws its inputs from --seed alone and hands the program
// only the generated traces. Each uses at most two worker goroutines. The
// input is a batch of pieces, each a whole problem that is set up, run
// and checked on its own (see workloads.go for why and for the sizes).
//
//   - tablei: Table I's synthetic legs, every load plus the unscaled trace
//     under all nine algorithms, through dfrs.Campaign on a 2-worker pool.
//     The paper's headline experiment, bound by DYNMCB8's drop-and-retry
//     solve loop in the allocator's 2-dimensional fast path; it also covers
//     materialized admission and the campaign pool. At the default seed the
//     run also replays BenchmarkTableI's grid (with its two HPC2N-like
//     weeks) and checks the published figures 139.4, 5.327 and 1.784.
//   - fed-easy: 8 identical 128-node members running EASY behind queuedepth
//     dispatch on 2 federation workers, each member at load 0.8. Engine and
//     federation bound, no allocator (the workload on which an allocator
//     change should show no change); queuedepth reads live member state,
//     so the parallel loop barriers on every arrival and parallelism does
//     not pay.
//   - fed-gpu: 4 gpu-uniform 128-node members running DYNMCB8-PER behind
//     queuedepth on 2 workers, 30% of the jobs demanding GPUs, each member
//     at load 0.8. The allocator in its 3-dimensional form, on the side
//     where parallel members win.
//
// # End-to-end metrics (--trace 0)
//
//   - wall_s: geometric mean over the run's pieces of the time from the
//     start of a piece to its last result, set-up excluded. Pieces run
//     until --seconds have passed and at least the workload's minPieces
//     have run (80 for tablei, whose piece times spread widest, so its runs
//     take about 40 s on a 2-core host).
//   - setup_s: median per-piece set-up: trace generation and encoding,
//     name look-ups, grid validation. A small fixed warm-up piece runs once
//     before the first piece and is not timed.
//   - peak_heap_mib: mean over the pieces of the peak live Go heap while
//     the piece runs, sampled from runtime/metrics. The collector measures
//     live bytes once per cycle, and whether a cycle lands inside a
//     short-lived allocation burst (a federation merging its members' job
//     results, say) is chance: a piece's peak can read one of two values
//     6 MiB apart. The mean over the pieces evens that out; a median flips
//     between the two.
//   - ok_frac: share of attempted operations that succeeded. An operation
//     is a campaign cell, a simulation, or an output check; an error or an
//     output mismatch is a failure. It is the complement of the failed
//     share, which the report's attempted and failed counts carry, because
//     an end-to-end metric must never read 0.
//
// # Output checks
//
// Every piece is checked structurally: every job submitted, dispatched and
// finished, every stretch at least 1, events counted, every Table I
// instance run by all nine algorithms on the same jobs. At the default
// seed the digest of the first refPieces outputs (sorted campaign records;
// per-member and merged federation results with every job's outcome) must
// also equal the reference in check.go.
//
// # Traced run (--trace 1)
//
// The first tracedPieces pieces each run untraced, then through forwarding
// wrappers with spans recorded, and for federations once more on the
// serial loop; every run of a piece must produce the same output digest.
// Spans (name, start, end, parent) are kept in memory and written out at
// the end to .bench_build/perfbench/spans-<workload>-seed<n>.tsv. Their
// sources, all in this directory and none inside the program:
//
//   - campaign cells: a CampaignOptions.Observer per cell, closed by the
//     Progress callback with the cell's record;
//   - scheduler hooks: Observer.SchedulerInvoked, the span starting its
//     elapsed time before the callback;
//   - dispatch: a forwarding dispatcher registered with
//     dfrs.RegisterDispatcher, which claims StatelessDispatcher only when
//     the policy it wraps does;
//   - allocator: a forwarding scheduler registered with
//     dfrs.RegisterAlgorithm around sched.New, which reports the inner
//     Name, forwards sim.CapacityChecker when the inner scheduler has it,
//     leaves the packer alone (so MCB8's warm start stays on), and before
//     each DYNMCB8 repack records the job set. After the run every
//     snapshot is re-solved in order through one core.Workspace with
//     vectorpack.MCB8 (MaxMinYield, or MinEstimatedStretch for the stretch
//     variant): the first solve of each repack, timed.
//
// The per-layer metrics (layers.go) and the end-to-end metric each should
// move:
//
//	campaign.*   cells, cell time p50/max, critical path and pool busy
//	             shares                          wall_s on tablei
//	sim.*        events, events/s, time outside scheduler hooks (and,
//	             in federations, outside dispatch)
//	                                             wall_s on fed-easy
//	sched.<f>.*  per family (mcb, greedy, batch): calls, busy time, call
//	             p50/p99, mean jobs in system as the simulator reports
//	             it to observers (unfinished jobs, which in a
//	             materialized run include those not yet submitted),
//	             calls per hook
//	                                             mcb: tablei, fed-gpu;
//	                                             greedy: tablei;
//	                                             batch: fed-easy, tablei
//	core.*       replayed first solves: count, p50/p99, mean jobs,
//	             memory-infeasible share, share of DYNMCB8 hook time
//	                                             tablei, fed-gpu; no change
//	                                             on fed-easy
//	federation.* dispatch count and mean, member busy time, parallelism,
//	             speed-up over the serial loop, largest member share
//	                                             fed-easy, fed-gpu
//	workload.*   piece set-up, TraceReader ns per job
//	                                             setup_s
//	process.*    CPU, allocation, GC cycles and pauses of the untraced runs
//	                                             peak_heap_mib, wall_s
//	trace.*      traced over untraced wall time, minus 1   reported only
//
// A layer a workload does not exercise reports 0.
//
// # Not measured yet
//
//   - dfrs-serve over HTTP.
//   - A streamed replay through dfrs.RunStream: dropped as a workload
//     because its run-to-run spread on a shared 2-core host, at a fixed
//     seed, came too close to the 25% bound (see workloads.go).
//   - The packer's warm-start hit rate, and the exact number of solves per
//     reschedule (the replay only re-solves the first). Both need counters
//     inside the program, the ROADMAP's sim.Stats item.
//   - Hook spans include the forwarding scheduler's snapshot copy, which
//     is O(jobs in system) per DYNMCB8 repack; it shows in
//     trace.overhead_frac.
package main
