package main

import (
	"math"
	"runtime/metrics"
	"syscall"
	"time"
)

// percentile interpolates linearly between the closest ranks of a sorted
// sample; p in [0,1]. An empty sample reads 0 (its run reports
// correct:false, having completed nothing).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := p * float64(len(sorted)-1)
	lo := int(math.Floor(r))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(r-float64(lo))
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the three cut points of a sorted sample the way
// Python's statistics.quantiles(data, n=4) computes them (the default
// "exclusive" method), so printed quartiles match the tooling that reads
// them.
func quartiles(sorted []float64) []float64 {
	ld := len(sorted)
	switch ld {
	case 0:
		return nil
	case 1:
		return []float64{sorted[0], sorted[0], sorted[0]}
	}
	const n = 4
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out = append(out, (sorted[j-1]*float64(n-delta)+sorted[j]*float64(delta))/n)
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes is the memory the Go runtime holds mapped and has not
// returned to the operating system: all of this pure-Go process's resident
// memory, read without touching any file.
func residentBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	total, released := s[0].Value.Uint64(), s[1].Value.Uint64()
	return total - released
}

func rssSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
}

// mean is the arithmetic mean, 0 for no samples.
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

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
