package workload

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds covers the seeding corner cases: zero and the seeds math/rand
// maps onto it, both signs, both extremes of int64, multiples of the
// Lehmer modulus, and seeds past 2³¹.
var randSeeds = []int64{
	0, 1, -1, 42, math.MinInt64, math.MaxInt64,
	lehmerM, -lehmerM, 3 * lehmerM, zeroSeed, 1 << 40,
}

// TestNewRandMatchesMathRand draws through every kind of *rand.Rand method
// and requires the stream of rand.New(rand.NewSource(seed)), first from a
// fresh NewRand and then from the same stream reseeded after its draws, the
// path the generator's pooled streams take.
func TestNewRandMatchesMathRand(t *testing.T) {
	const draws = 5000
	methods := []struct {
		name string
		draw func(*rand.Rand) any
	}{
		{"Int63", func(r *rand.Rand) any { return r.Int63() }},
		{"Uint64", func(r *rand.Rand) any { return r.Uint64() }},
		{"Float64", func(r *rand.Rand) any { return math.Float64bits(r.Float64()) }},
		{"NormFloat64", func(r *rand.Rand) any { return math.Float64bits(r.NormFloat64()) }},
		{"ExpFloat64", func(r *rand.Rand) any { return math.Float64bits(r.ExpFloat64()) }},
		{"Intn7", func(r *rand.Rand) any { return r.Intn(7) }},
		{"Perm5", func(r *rand.Rand) any { return [5]int(r.Perm(5)) }},
	}
	for _, seed := range randSeeds {
		got := NewRand(seed)
		for _, m := range methods {
			want := rand.New(rand.NewSource(seed))
			for i := 0; i < draws; i++ {
				if g, w := m.draw(got), m.draw(want); g != w {
					t.Fatalf("seed %d, %s draw %d: got %v, want %v", seed, m.name, i, g, w)
				}
			}
			got.Seed(seed)
		}
	}
}

func FuzzNewRand(f *testing.F) {
	for _, seed := range randSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d, draw %d: got %d, want %d", seed, i, g, w)
			}
		}
	})
}

// BenchmarkSeed prices a fresh seeded stream, NewRand against math/rand.
func BenchmarkSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"NewRand", NewRand},
		{"MathRand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.new(int64(i))
			}
		})
	}
}
