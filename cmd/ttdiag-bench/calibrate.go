package main

import (
	"crypto/sha256"
	"sort"
	"sync"
	"sync/atomic"
)

// calibRef is about the calibration kernel's wall time, in seconds, on the
// 2-vCPU VM the benchmark was calibrated on, when the host was quiet.
//
// The end-to-end times of a launch are scaled by calibRef over the mean of
// the kernel times measured just before and just after it. Other tenants of
// a shared host slow the CLI and the kernel alike (on that VM the same
// launch took from 1.0 to 1.9 s within ten minutes), so the scaled times
// read what the launch would have taken on the quiet reference VM, and a
// regression shows however busy the host was.
const calibRef = 0.2

// kernelRounds is the calibration kernel's fixed amount of work.
const kernelRounds = 250

// calibrationKernel is a fixed mix of the work the workloads do: small
// allocations and the collection of them, pointer chasing, hashing, and
// sorting. Its rounds are shared out to childProcs goroutines as each
// becomes free, like the campaign pool shares out repetitions, so its time
// follows the combined speed of the CPUs the launches run on. It depends on
// nothing in the repository, so no change to the code under test moves it.
func calibrationKernel() {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < childProcs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= kernelRounds {
				kernelRound()
			}
		}()
	}
	wg.Wait()
}

type kernelNode struct {
	next *kernelNode
	v    [6]uint64
}

// kernelSink keeps the kernel's results live.
var kernelSink atomic.Uint64

// kernelRound builds and walks a 20000-node list, hashes 16 KiB and sorts
// 4000 ints, each step fed by the one before.
func kernelRound() {
	var head *kernelNode
	for i := 0; i < 20000; i++ {
		head = &kernelNode{next: head}
		head.v[i%6] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var acc uint64
	for n := head; n != nil; n = n.next {
		acc += n.v[0] ^ n.v[3]
	}
	buf := make([]byte, 16<<10)
	for i := range buf {
		buf[i] = byte(acc >> uint(i%56))
	}
	sum := sha256.Sum256(buf)
	xs := make([]int, 4000)
	for i := range xs {
		xs[i] = int((uint64(sum[i%32]) + uint64(i)*2654435761) % 100000)
	}
	sort.Ints(xs)
	kernelSink.Add(uint64(xs[100]))
}
