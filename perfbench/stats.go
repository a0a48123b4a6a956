package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// subSeed derives the i-th input seed of a run from the workload seed
// (splitmix64), so one -seed names a whole sequence of inputs.
func subSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) % 1_000_000_000
}

// quantile returns the nearest-rank q-quantile (0 <= q <= 1) of xs.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// trimmedMean is the mean of xs without its smallest and largest value
// (with five values or more): as steady as a mean over inputs that
// differ, and not moved by one operation the host slowed down.
func trimmedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) >= 5 {
		s = s[1 : len(s)-1]
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tailPercentiles are the candidates for a tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// tail returns the highest candidate percentile that leaves at least
// ten samples beyond it, its value, and a label such as "p99 of 2400".
// With too few samples for any candidate it returns the maximum.
func tail(xs []float64) (float64, string) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), fmt.Sprintf("p%g of %d", p, len(xs))
		}
	}
	return quantile(xs, 1), fmt.Sprintf("max of %d", len(xs))
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuNow is the process's CPU time so far, user plus system.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// step is the wall and CPU time of one timed call.
type step struct{ wall, cpu time.Duration }

// timeStep runs f and returns its wall and process CPU time.
func timeStep(f func() error) (step, error) {
	t0, c0 := time.Now(), cpuNow()
	err := f()
	return step{time.Since(t0), cpuNow() - c0}, err
}

// A run sets its workload up at least minSetups times and until
// setupTime has passed, at most maxSetups times: a short set-up is
// repeated more, so that its median is as steady as a long one's.
const (
	minSetups = 5
	maxSetups = 31
	setupTime = 2 * time.Second
)

// setups runs the workload's set-up repeatedly, each after a
// collection, and records the median CPU time of a set-up as setup_s.
// prepare returns a cleanup for the state of every set-up but the last,
// which the run keeps.
func (r *run) setups(prepare func() (func(), error)) error {
	var walls, cpus []float64
	var spent time.Duration
	var cleanup func()
	for len(walls) < minSetups || (spent < setupTime && len(walls) < maxSetups) {
		if cleanup != nil {
			cleanup()
		}
		runtime.GC()
		st, err := timeStep(func() (err error) {
			cleanup, err = prepare()
			return err
		})
		if err != nil {
			if cleanup != nil {
				cleanup()
			}
			return fmt.Errorf("set-up: %w", err)
		}
		spent += st.wall
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
	}
	r.logf("set-up: %d runs, median wall %.4fs, CPU %.4fs", len(walls), median(walls), median(cpus))
	if !r.traced {
		r.set("setup_s", median(cpus))
	}
	return nil
}
