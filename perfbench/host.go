package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// host is the machine shape every result is printed with.
type host struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	PoolWorkers int    `json:"pool_workers"`
	FedWorkers  int    `json:"federation_workers"`
}

func hostShape() host {
	return host{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		GoVersion:   runtime.Version(),
		PoolWorkers: tableIWorkers,
		FedWorkers:  fedWorkers,
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStats holds the process counters the process.* metrics are made
// of: a snapshot from readProc, or the difference of two.
type procStats struct {
	cpu      time.Duration // user + system CPU time of the process
	userGo   float64       // CPU seconds running Go code, runtime estimate
	allocs   uint64        // heap bytes allocated
	gcCycles uint64
	pause    time.Duration // stop-the-world GC pauses
}

var procSamples = []string{
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procStats {
	var p procStats
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(procSamples))
	for i, n := range procSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	p.userGo = s[0].Value.Float64()
	p.allocs = s[1].Value.Uint64()
	p.gcCycles = s[2].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.pause = time.Duration(ms.PauseTotalNs)
	return p
}

// add accumulates the counters' change from a to b.
func (p *procStats) add(a, b procStats) {
	p.cpu += b.cpu - a.cpu
	p.userGo += b.userGo - a.userGo
	p.allocs += b.allocs - a.allocs
	p.gcCycles += b.gcCycles - a.gcCycles
	p.pause += b.pause - a.pause
}

// heapSampler records the peak live heap while it runs: the live bytes the
// collector marked at its last cycle, read every few milliseconds.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, takes a last reading and returns the peak in
// MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.done.Wait()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}
