package main

import (
	"compress/flate"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Calibration tells how fast the machine runs at the moment. On a shared
// virtual machine that speed moves by up to 1.6× over seconds to minutes,
// as the neighbours on the host's cores come and go, and every timed
// metric moves with it. calibrate runs a fixed amount of ordinary Go work
// (a table-and-branch loop, DEFLATE, sorting and a hash map) on every core
// at once, between repetitions and outside any timed phase. It uses only
// the standard library, so no change to the system under test moves it.
// The end-to-end times are reported as they would read on a machine where
// that work takes calibRefUS.
const (
	calibCores = 2
	calibRefUS = 10000.0 // about its time on an uncontended 2-vCPU Xeon VM, Go 1.24

	// calibExp is the power of the calibration time that the workloads'
	// times are taken to move with. They slow somewhat more than the
	// calibration work when the machine does, by how much depends on the
	// workload and the kind of contention. Over eight sets of ten runs of
	// each workload on a 2-vCPU Xeon VM, power 1.1 kept the drift between
	// any two sets at most 0.22 and the spread within a set at most 0.18
	// (set-up's, which has no spread bound, 0.26) for every timed metric
	// but ingest-bulk's median round trip; power 1 let set-up drift by
	// 0.25, power 1.25 let grid-paper's times spread by 0.22.
	calibExp = 1.1
)

type calibState struct {
	table []uint64
	ints  []int
	flate *flate.Writer
}

var (
	calibOnce   sync.Once
	calibStates [calibCores]*calibState
	calibText   []byte
	calibSink   uint64
)

func calibInit() {
	words := []string{"lease ", "shard ", "rack ", "pair ", "batch ", "cost ", "grid ", "job ", "r-bma ", "matching "}
	x := uint64(9)
	for len(calibText) < 128<<10 {
		x = x*6364136223846793005 + 1442695040888963407
		calibText = append(calibText, words[(x>>33)%uint64(len(words))]...)
	}
	for i := range calibStates {
		w, _ := flate.NewWriter(nil, 1)
		calibStates[i] = &calibState{table: make([]uint64, 4096), ints: make([]int, 1<<15), flate: w}
	}
}

// calibWork is the fixed work one core does per calibration.
func calibWork(s *calibState) uint64 {
	// Four generators, a 32 KiB table and data-dependent branches.
	t := s.table
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	var sum uint64
	for i := 0; i < 1<<17; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b = b*2862933555777941757 + 3037000493
		c += a >> 3
		d ^= c
		v := t[a&4095]
		if v&1 == 0 {
			sum += v ^ b
		} else {
			sum -= d
		}
		t[b>>52] = sum + c
	}

	// DEFLATE of 128 KiB of text.
	var n countWriter
	s.flate.Reset(&n)
	s.flate.Write(calibText)
	s.flate.Close()
	sum += uint64(n)

	// Sorting 32 Ki random integers.
	x := uint64(3)
	for i := range s.ints {
		x = x*6364136223846793005 + 1442695040888963407
		s.ints[i] = int(x >> 20)
	}
	sort.Ints(s.ints)
	sum += uint64(s.ints[len(s.ints)/2])

	// Inserts, lookups and deletes on a map of up to 16 Ki keys.
	m := make(map[uint32]uint32)
	y := uint32(5)
	for i := 0; i < 1<<16; i++ {
		y ^= y << 13
		y ^= y >> 17
		y ^= y << 5
		k := y & (1<<14 - 1)
		if v, ok := m[k]; ok {
			sum += uint64(v)
			if v&3 == 0 {
				delete(m, k)
			}
		} else {
			m[k] = y
		}
	}
	return sum
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// calibrate collects the garbage of the repetition before it, runs
// calibWork on every core at the same time and returns the wall time in
// µs.
func calibrate() float64 {
	calibOnce.Do(calibInit)
	runtime.GC()
	var wg sync.WaitGroup
	sums := make([]uint64, calibCores)
	start := time.Now()
	for c := range calibStates {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sums[c] = calibWork(calibStates[c])
		}(c)
	}
	wg.Wait()
	d := time.Since(start)
	for _, s := range sums {
		calibSink += s
	}
	return float64(d.Nanoseconds()) / 1e3
}
