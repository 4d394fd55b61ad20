package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On a shared host the speed available to the benchmark drifts over minutes:
// by up to ±20% on the 2-vCPU Xeon virtual machine it was sized on, far more
// than the changes the benchmark must resolve. The host kernel measures that
// drift. It is a fixed workload with the simulator's
// host profile — 20-way set scans over a 5 MB array, as the LLC model does,
// and dependent loads over a 16 MB one, as page-table walks do — written
// here, apart from the simulator, so no change to the simulator changes it.
// It runs on one goroutine per client, as the grid does, right before and
// after every timed iteration and set-up child, and the end-to-end times are
// scaled by referenceKernel over the mean of its two times: they read as
// seconds on the host at the speed the benchmark was sized at.
const referenceKernel = 65 * time.Millisecond

const (
	kernelSets  = 1 << 14
	kernelWays  = 20
	kernelChase = 1 << 22
	kernelSteps = 500_000
)

// hostKernel holds the kernel's arrays: one set array per client and a
// shared single-cycle permutation to chase. They are mapped outside the Go
// heap, so they neither pace the garbage collector nor change how much
// garbage the simulator may leave before a collection; they add a fixed 26 MB
// to the resident set.
type hostKernel struct {
	mem   []byte
	sets  [clients][]uint64
	chase []uint32
}

func newHostKernel() (*hostKernel, error) {
	setBytes := kernelSets * kernelWays * 8
	mem, err := syscall.Mmap(-1, 0, clients*setBytes+kernelChase*4,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host kernel: %w", err)
	}
	k := &hostKernel{mem: mem}
	for i := range k.sets {
		k.sets[i] = unsafe.Slice((*uint64)(unsafe.Pointer(&mem[i*setBytes])), kernelSets*kernelWays)
	}
	k.chase = unsafe.Slice((*uint32)(unsafe.Pointer(&mem[clients*setBytes])), kernelChase)
	// Sattolo's shuffle: one cycle through every slot.
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(k.chase) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	return k, nil
}

// close unmaps the kernel's arrays.
func (k *hostKernel) close() error { return syscall.Munmap(k.mem) }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// time runs the kernel on every client at once and returns the elapsed time.
func (k *hostKernel) time() time.Duration {
	var wg sync.WaitGroup
	sums := make([]uint64, clients)
	t0 := time.Now()
	for c := range k.sets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sums[c] = k.steps(k.sets[c], uint64(c+1)*0x2545f4914f6cdd1d)
		}(c)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		sink += s
	}
	return d
}

// steps runs kernelSteps probe-and-fill steps over sets, each followed by one
// dependent load from the chase array, and returns a checksum.
func (k *hostKernel) steps(sets []uint64, x uint64) uint64 {
	p := uint32(0)
	for i := 0; i < kernelSteps; i++ {
		x = xorshift(x)
		set := sets[int(x%kernelSets)*kernelWays:][:kernelWays]
		tag := x >> 20
		victim := 0
		for w := range set {
			if set[w] == tag {
				victim = -1
				break
			}
			if set[w] < set[victim] {
				victim = w
			}
		}
		if victim >= 0 {
			set[victim] = tag
		}
		p = k.chase[p]
	}
	return uint64(p)
}

// atReference scales a time measured while the kernel took kernel to the
// reference host speed.
func atReference(d, kernel time.Duration) float64 {
	return d.Seconds() * float64(referenceKernel) / float64(kernel)
}
