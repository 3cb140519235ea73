package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	dfrs "repro"
)

// defaultSeed is the seed whose outputs are pinned by reference digests.
// It is also the seed of the paper-scale Table I campaign (BenchmarkTableI),
// whose published figures tablei re-checks.
const defaultSeed = 42

// referenceDigests are, per workload, the digest of the outputs of the
// first refPieces pieces at the default seed, at the sizes in
// workloads.go. Changing a workload's size or the program's results
// changes them; a run at the default seed prints the digest it computed
// next to the one expected.
var referenceDigests = map[string]string{
	"tablei":   "4e4325e158fc48a7",
	"fed-easy": "68f0c29bd59e2dee",
	"fed-gpu":  "16f51b831150cfd6",
}

// tableIFigures are BenchmarkTableI's reported degradation means at the
// default seed, as published: EASY and DYNMCB8-ASAP-PER on the scaled
// synthetic leg, GREEDY-PMTN on the HPC2N-like leg.
var tableIFigures = []struct {
	name      string
	published string
}{
	{"easy-scaled-deg", "139.4"},
	{"asapper-scaled-deg", "5.327"},
	{"gpmtn-real-deg", "1.784"},
}

// outcome is what one run of a piece produced, reduced to what the checks
// need.
type outcome struct {
	ops      int      // operations run: campaign cells or simulations
	events   int      // simulation events over all operations
	digest   string   // hash of the canonical outputs
	problems []string // structural check failures
	// dispatched holds, for a federated run, the jobs routed to each
	// member.
	dispatched []int
}

// digestOf hashes values in order through their JSON encoding.
func digestOf(values ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			// Only the plain data types below are encoded.
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// untraced strips the forwarding wrappers' registry prefix from a label.
func untraced(s string) string { return strings.ReplaceAll(s, tracedPrefix, "") }

// canonicalRecords returns the campaign records with wrapper names
// stripped, sorted by key.
func canonicalRecords(recs []dfrs.CampaignRecord) []dfrs.CampaignRecord {
	out := make([]dfrs.CampaignRecord, len(recs))
	for i, r := range recs {
		r.Key = untraced(r.Key)
		r.Algorithm = untraced(r.Algorithm)
		r.Timing = nil
		out[i] = r
	}
	dfrs.SortCampaignRecords(out)
	return out
}

// checkRecords checks a Table I campaign's records structurally: one record
// per cell, every job of every cell finished, stretches at least 1, events
// counted, and every instance run by every algorithm on the same jobs.
func checkRecords(recs []dfrs.CampaignRecord, cells int, algs []string, jobsPerTrace int) []string {
	var probs []string
	if len(recs) != cells {
		probs = append(probs, fmt.Sprintf("%d records for %d cells", len(recs), cells))
	}
	finished := map[string]int{}
	count := map[string]int{}
	for _, r := range recs {
		switch {
		case r.Events <= 0, r.Finished <= 0:
			probs = append(probs, fmt.Sprintf("%s: %d events, %d finished", r.Key, r.Events, r.Finished))
		case r.Family == dfrs.FamilyLublin && r.Finished != jobsPerTrace:
			probs = append(probs, fmt.Sprintf("%s: %d of %d jobs finished", r.Key, r.Finished, jobsPerTrace))
		case !atLeastOne(r.MaxStretch) || !atLeastOne(r.AvgStretch):
			probs = append(probs, fmt.Sprintf("%s: stretch max %g avg %g", r.Key, r.MaxStretch, r.AvgStretch))
		}
		k := r.InstanceKey()
		if f, ok := finished[k]; ok && f != r.Finished {
			probs = append(probs, fmt.Sprintf("%s: %d jobs finished, other algorithms %d", r.Key, r.Finished, f))
		}
		finished[k] = r.Finished
		count[k]++
	}
	for k, n := range count {
		if n != len(algs) {
			probs = append(probs, fmt.Sprintf("instance %s: %d of %d algorithms", k, n, len(algs)))
		}
	}
	sort.Strings(probs)
	return probs
}

// tableIFiguresOf recomputes BenchmarkTableI's three figures from the
// records of its grid.
func tableIFiguresOf(recs []dfrs.CampaignRecord) (map[string]float64, error) {
	type inst struct {
		real    bool
		stretch map[string]float64
	}
	insts := map[string]*inst{}
	var order []string
	for _, r := range recs {
		if r.Family == dfrs.FamilyLublin && r.Load == dfrs.UnscaledLoad {
			continue // Table I's middle column, not among the figures
		}
		k := r.InstanceKey()
		in := insts[k]
		if in == nil {
			in = &inst{real: r.Family == dfrs.FamilyHPC2N, stretch: map[string]float64{}}
			insts[k] = in
			order = append(order, k)
		}
		in.stretch[untraced(r.Algorithm)] = r.MaxStretch
	}
	var easy, asap, gpmtn []float64
	for _, k := range order {
		in := insts[k]
		deg, err := dfrs.DegradationFactors(in.stretch)
		if err != nil {
			return nil, err
		}
		if in.real {
			gpmtn = append(gpmtn, deg["greedy-pmtn"])
		} else {
			easy = append(easy, deg["easy"])
			asap = append(asap, deg["dynmcb8-asap-per"])
		}
	}
	return map[string]float64{
		"easy-scaled-deg":    mean(easy),
		"asapper-scaled-deg": mean(asap),
		"gpmtn-real-deg":     mean(gpmtn),
	}, nil
}

// checkFigures compares recomputed Table I figures with the published
// ones, to the precision they were published with.
func checkFigures(got map[string]float64) []string {
	var probs []string
	for _, f := range tableIFigures {
		want, err := strconv.ParseFloat(f.published, 64)
		if err != nil {
			panic(err) // a constant above
		}
		dec := 0
		if i := strings.IndexByte(f.published, '.'); i >= 0 {
			dec = len(f.published) - i - 1
		}
		if math.Abs(got[f.name]-want) > 0.5*math.Pow(10, -float64(dec)) {
			probs = append(probs, fmt.Sprintf("%s = %.6g, published %s", f.name, got[f.name], f.published))
		}
	}
	return probs
}

// checkReference compares the digest of a run's first refPieces outputs
// with the workload's reference.
func checkReference(workload string, digests []string) []string {
	if got, want := digestOf(digests), referenceDigests[workload]; got != want {
		return []string{fmt.Sprintf("output digest %s, reference %s", got, want)}
	}
	return nil
}

// atLeastOne reports whether a stretch is at least 1, up to the rounding
// of the simulator's floating-point clock: a job that ran unimpeded can
// finish a few ulps early, and an average of such stretches can fall a
// few ulps below 1.
func atLeastOne(stretch float64) bool { return stretch >= 1-1e-9 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
