package workload

import (
	"math/rand"
	"testing"
)

func drawCounts(t *testing.T, d KeyDist, n, draws int, seed int64) []int {
	t.Helper()
	pick := d.Picker(rand.New(rand.NewSource(seed)), n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		x := pick()
		if x < 0 || x >= n {
			t.Fatalf("%s: draw %d out of range [0,%d)", d.Name(), x, n)
		}
		counts[x]++
	}
	return counts
}

func TestKeyDistDeterministic(t *testing.T) {
	for _, d := range []KeyDist{Uniform{}, Zipfian{S: 1.1}} {
		a := drawCounts(t, d, 100, 2000, 42)
		b := drawCounts(t, d, 100, 2000, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at index %d: %d vs %d",
					d.Name(), i, a[i], b[i])
			}
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	counts := drawCounts(t, Zipfian{S: 1.1}, 1000, 20000, 7)
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	// Zipf s=1.1 concentrates well over half the mass on the top 10%
	// of keys; uniform would put ~10% there.
	if head < 10000 {
		t.Fatalf("top-100 of 1000 drew %d/20000 — not skewed", head)
	}
	if name := (Zipfian{S: 1.3}).Name(); name != "zipf-s1.30" {
		t.Fatalf("Name() = %q", name)
	}
}
