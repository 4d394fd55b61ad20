package rng

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1) == Mix64(2) {
		t.Fatal("Mix64 collides trivially on 1 and 2")
	}
}

func TestStreamDeterministic(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestStreamSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical values", same)
	}
}

func TestUint64nRange(t *testing.T) {
	s := New(3)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nMatchesBigReference(t *testing.T) {
	// Uint64n(n) is the high word of the 128-bit product Next()*n, checked
	// here against math/big on edge values of n and on random draws.
	ref := func(x, n uint64) uint64 {
		p := new(big.Int).Mul(new(big.Int).SetUint64(x), new(big.Int).SetUint64(n))
		return p.Rsh(p, 64).Uint64()
	}
	ns := []uint64{1, 2, 3, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<63 - 1, 1 << 63, 1<<64 - 1}
	for k := 0; k < 64; k++ {
		ns = append(ns, 1<<k)
	}
	draws := New(17)
	for i := 0; i < 2000; i++ {
		ns = append(ns, draws.Next()>>draws.Uint64n(64))
	}
	for i, n := range ns {
		if n == 0 {
			continue
		}
		s, shadow := New(uint64(i)), New(uint64(i))
		for j := 0; j < 8; j++ {
			if got, want := s.Uint64n(n), ref(shadow.Next(), n); got != want {
				t.Fatalf("Uint64n(%#x) draw %d = %#x, big reference %#x", n, j, got, want)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 100, 1000, 4097} {
		p := NewPerm(n, 99)
		seen := make(map[uint64]bool, n)
		for x := uint64(0); x < n; x++ {
			y := p.Apply(x)
			if y >= n {
				t.Fatalf("n=%d: Apply(%d)=%d out of range", n, x, y)
			}
			if seen[y] {
				t.Fatalf("n=%d: Apply(%d)=%d collides", n, x, y)
			}
			seen[y] = true
		}
	}
}

func TestPermPropertyInRange(t *testing.T) {
	p := NewPerm(1<<20, 5)
	f := func(x uint64) bool {
		x %= 1 << 20
		return p.Apply(x) < 1<<20
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermPropertyInjective(t *testing.T) {
	p := NewPerm(1<<16, 77)
	f := func(a, b uint64) bool {
		a %= 1 << 16
		b %= 1 << 16
		if a == b {
			return true
		}
		return p.Apply(a) != p.Apply(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermScatters(t *testing.T) {
	// Consecutive inputs should not map to consecutive outputs in bulk.
	p := NewPerm(1<<20, 13)
	adjacent := 0
	prev := p.Apply(0)
	for x := uint64(1); x < 1000; x++ {
		cur := p.Apply(x)
		if cur == prev+1 {
			adjacent++
		}
		prev = cur
	}
	if adjacent > 10 {
		t.Fatalf("permutation preserved %d adjacencies out of 1000; not scattering", adjacent)
	}
}

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(1000, 0.99, New(1))
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v >= 1000 {
			t.Fatalf("zipfian rank %d out of range", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// Rank 0 must be the most frequent and the head must dominate the tail.
	z := NewZipfian(100000, 0.99, New(2))
	counts := make(map[uint64]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] < counts[50000] {
		t.Fatal("rank 0 not hotter than rank 50000")
	}
	head := 0
	for r := uint64(0); r < 100; r++ {
		head += counts[r]
	}
	if float64(head)/n < 0.2 {
		t.Fatalf("head 100 ranks carry only %.2f%% of accesses; zipfian skew too weak",
			100*float64(head)/n)
	}
}

func TestZipfianThetaControlsSkew(t *testing.T) {
	headShare := func(theta float64) float64 {
		z := NewZipfian(1<<20, theta, New(3))
		head := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if z.Next() < 1024 {
				head++
			}
		}
		return float64(head) / n
	}
	low, high := headShare(0.5), headShare(0.99)
	if high <= low {
		t.Fatalf("theta=0.99 head share (%v) not above theta=0.5 (%v)", high, low)
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	z := NewZipfian(1<<30, 0.99, New(4))
	// Scrambled hot items should land all over the domain, not at the start.
	inFirstQuarter := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if z.ScrambledNext() < 1<<28 {
			inFirstQuarter++
		}
	}
	share := float64(inFirstQuarter) / n
	if share < 0.15 || share > 0.35 {
		t.Fatalf("scrambled first-quarter share = %v, want ~0.25", share)
	}
}

func TestZetaApproximation(t *testing.T) {
	// The integral-tail approximation must be close to the exact sum for an
	// n just above the exact limit.
	n := uint64(zetaExactLimit * 4)
	exact := 0.0
	for i := uint64(1); i <= n; i++ {
		exact += 1 / math.Pow(float64(i), 0.99)
	}
	approx := zeta(n, 0.99)
	if rel := math.Abs(approx-exact) / exact; rel > 0.01 {
		t.Fatalf("zeta approximation relative error %v > 1%%", rel)
	}
}

func TestPanics(t *testing.T) {
	assertPanics(t, "Uint64n(0)", func() { New(1).Uint64n(0) })
	assertPanics(t, "Intn(0)", func() { New(1).Intn(0) })
	assertPanics(t, "NewPerm(0)", func() { NewPerm(0, 1) })
	assertPanics(t, "Perm out of range", func() { NewPerm(8, 1).Apply(8) })
	assertPanics(t, "NewZipfian(0)", func() { NewZipfian(0, 0.9, New(1)) })
	assertPanics(t, "NewZipfian theta=1", func() { NewZipfian(10, 1, New(1)) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}
