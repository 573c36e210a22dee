package main

import (
	"runtime"
	"syscall"
	"time"
)

// The host drift probe: a fixed compute kernel and a fixed random-memory
// kernel, written here and sharing no code with the program. Host memory
// speed on small shared machines drifts by tens of percent between runs;
// the probe records that drift beside every run, so that a host change can
// be told from a program change. It runs before the workload, outside
// every timed region, and never rescales a reported metric.

const (
	probeMixSteps = 1 << 26 // compute kernel iterations
	probeMemWords = 1 << 23 // 32 MiB of uint32, beyond any last-level cache
	probeMemSteps = 1 << 22 // dependent random loads
)

var probeSink uint64

// probe returns the compute and memory kernels' wall times in seconds.
func probe() (cpuS, memS float64) {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < probeMixSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 29
	}
	cpuS = time.Since(t0).Seconds()

	// Sattolo's algorithm: one random cycle through every word, so each
	// load depends on the previous one and the walk never settles in cache.
	next := make([]uint32, probeMemWords)
	for i := range next {
		next[i] = uint32(i)
	}
	r := x | 1
	for i := len(next) - 1; i > 0; i-- {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		j := int(r % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	t1 := time.Now()
	p := uint32(0)
	for i := 0; i < probeMemSteps; i++ {
		p = next[p]
	}
	memS = time.Since(t1).Seconds()
	probeSink = x + uint64(p)
	return cpuS, memS
}

// hostCounters are the process's own runtime counters over a measured
// region: CPU time from rusage, allocation and GC from runtime.MemStats.
type hostCounters struct {
	CPUS      float64
	AllocMB   float64
	GCCycles  float64
	GCPauseMs float64
}

type hostMark struct {
	ru syscall.Rusage
	ms runtime.MemStats
}

func markHost() hostMark {
	var m hostMark
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru) // RUSAGE_SELF cannot fail
	runtime.ReadMemStats(&m.ms)
	return m
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// since returns the counters accumulated between m and now.
func (m hostMark) since() hostCounters {
	n := markHost()
	cpu := func(ru syscall.Rusage) float64 { return tvSeconds(ru.Utime) + tvSeconds(ru.Stime) }
	return hostCounters{
		CPUS:      cpu(n.ru) - cpu(m.ru),
		AllocMB:   float64(n.ms.TotalAlloc-m.ms.TotalAlloc) / (1 << 20),
		GCCycles:  float64(n.ms.NumGC - m.ms.NumGC),
		GCPauseMs: float64(n.ms.PauseTotalNs-m.ms.PauseTotalNs) / 1e6,
	}
}
