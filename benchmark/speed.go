package main

import "time"

// calNominal is how long the calibration kernel takes on the box this
// benchmark was written on when nothing disturbs it.
//
// The reason for the kernel is the machine, not the program. On a shared
// two-core VM the speed moves within seconds and over minutes with what the
// neighbours do, by more than the bounds of the metrics, so that neither
// medians nor minima over the blocks of a run agree from one run to the next
// (README.md has the runs). The kernel runs after every op of a block, outside
// every timed region, and is the harness's own code, which no change to the
// repository touches. A block's machine speed is calNominal over the mean of
// the samples taken inside it; every end-to-end time is reported both as the
// clock read it and at nominal speed, that is, multiplied by that speed.
const calNominal = 2.5e-3

var (
	calHeap  [1024]uint64
	calTable [1 << 16]uint32
)

// calibrate runs the calibration kernel once and returns its time in
// seconds: 60000 replace-min operations on a binary heap, each followed by
// an update in a 256 KB table. Like the simulator it is a heap, a hash and
// little arithmetic, and it fits in the second-level cache.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := range calHeap {
		calHeap[i] = uint64(i) << 20
	}
	for n := 0; n < 60000; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := calHeap[0] + x&0xfffff + 1
		i := 0
		for {
			l := 2*i + 1
			if l >= len(calHeap) {
				break
			}
			if r := l + 1; r < len(calHeap) && calHeap[r] < calHeap[l] {
				l = r
			}
			if calHeap[l] >= v {
				break
			}
			calHeap[i] = calHeap[l]
			i = l
		}
		calHeap[i] = v
		calTable[(v>>4)&0xffff] += uint32(v)
	}
	return time.Since(t0).Seconds()
}

// clocked runs fn between calibration samples and returns its time in
// seconds as the clock read it and at nominal machine speed.
func clocked(fn func()) (raw, nominal float64) {
	c := calibrate() + calibrate()
	t0 := time.Now()
	fn()
	raw = time.Since(t0).Seconds()
	c += calibrate() + calibrate()
	return raw, raw * calNominal / (c / 4)
}
