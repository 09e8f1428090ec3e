package workload

import "math/rand"

// NewRand returns a *rand.Rand that draws, bit for bit and through every
// method Seed included, the stream of math/rand's own source seeded with
// seed, without that source's seeding cost.
//
// math/rand's source is an additive lagged Fibonacci register of 607 words.
// Seeding fills word i from three consecutive states of the Lehmer generator
// x ← 48271·x mod (2³¹−1), started at the seed after 20 discarded steps, and
// XORs in a fixed "cooked" constant. Filling it walks 1,841 dependent
// steps. State n is 48271ⁿ·x₀ mod (2³¹−1), so with the powers tabulated
// the 1,821 states the words read are independent products; the cooked
// constants are recovered once, at init, from the output of math/rand's
// source seeded with 1.
func NewRand(seed int64) *rand.Rand {
	s := new(lfSource)
	s.Seed(seed)
	return rand.New(s)
}

// The shape of math/rand's source and of its seeding generator.
const (
	lfLen    = 607 // register words
	lfTap    = 273 // distance from the feed to the tap
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	lfSkip   = 20       // Lehmer steps discarded before the first word
	zeroSeed = 89482311 // what a seed ≡ 0 mod lehmerM seeds with
)

var (
	// lehmerPow[n] is lehmerA^n mod lehmerM, for every step seeding reads.
	lehmerPow [lfSkip + 3*lfLen + 1]uint64
	// cooked[i] is the constant math/rand XORs into register word i.
	cooked [lfLen]int64
)

func init() {
	lehmerPow[0] = 1
	for n := 1; n < len(lehmerPow); n++ {
		lehmerPow[n] = lehmerPow[n-1] * lehmerA % lehmerM
	}
	// With cooked still zero, seeding 1 leaves only the Lehmer words.
	var plain, ref lfSource
	plain.Seed(1)
	// Every one of the first lfLen outputs of the reference is written back
	// into the word it was fed from, so after them the register is known;
	// running the same steps backwards then yields its seeded state.
	src := rand.NewSource(1).(rand.Source64)
	ref.feed = lfLen - lfTap
	for k := 0; k < lfLen; k++ {
		ref.advance()
		ref.vec[ref.feed] = int64(src.Uint64())
	}
	for k := 0; k < lfLen; k++ {
		ref.vec[ref.feed] -= ref.vec[ref.tap]
		ref.tap, ref.feed = (ref.tap+1)%lfLen, (ref.feed+1)%lfLen
	}
	for i := range cooked {
		cooked[i] = ref.vec[i] ^ plain.vec[i]
	}
}

// lfSource is math/rand's additive lagged Fibonacci source with direct
// seeding; see NewRand.
type lfSource struct {
	tap, feed int
	vec       [lfLen]int64
}

// mulMod returns a·x mod lehmerM for a, x < 2³¹, folding the product's high
// bits onto its low ones (2³¹ ≡ 1).
func mulMod(a, x uint64) int64 {
	v := a * x
	v = v&lehmerM + v>>31
	if v >= lehmerM {
		v -= lehmerM
	}
	return int64(v)
}

// Seed implements rand.Source.
func (s *lfSource) Seed(seed int64) {
	s.tap, s.feed = 0, lfLen-lfTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	x := uint64(seed)
	pow := lehmerPow[lfSkip+1:]
	for i := range s.vec {
		p := pow[3*i : 3*i+3 : 3*i+3]
		s.vec[i] = mulMod(p[0], x)<<40 ^ mulMod(p[1], x)<<20 ^ mulMod(p[2], x) ^ cooked[i]
	}
}

// advance moves the tap and the feed one word back.
func (s *lfSource) advance() {
	s.tap--
	if s.tap < 0 {
		s.tap += lfLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += lfLen
	}
}

// Uint64 implements rand.Source64.
func (s *lfSource) Uint64() uint64 {
	s.advance()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lfSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}
