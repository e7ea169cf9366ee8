package main

import "time"

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibrate times a fixed single-threaded loop, in nanoseconds per
// iteration. Run before and after a workload, it tells a drifting
// machine apart from a changed program.
func calibrate() float64 {
	const iters = 20_000_000
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		x := uint64(88172645463325252)
		t := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if d := time.Since(t); d < best {
			best = d
		}
		calibSink += x
	}
	return float64(best) / iters
}
