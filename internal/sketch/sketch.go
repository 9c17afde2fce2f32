// Package sketch implements the 128-bit connection-counting sketch
// Millisampler keeps per time bucket (paper §4.2), after the bitmap
// (linear-counting) estimators of Estan, Varghese & Fisk (IMC 2003).
//
// Each packet's flow identifier sets one bit; the number of distinct flows is
// estimated from the fraction of bits still zero:
//
//	n̂ = -m · ln(Z/m)
//
// where m is the bitmap width and Z the count of zero bits. At m = 128 the
// estimate is precise up to a dozen connections and saturates around 500 —
// exactly the qualitative resolution the paper found useful for telling
// heavy-incast (hundreds of connections) from few-connection traffic.
package sketch

import (
	"math"
	"math/bits"
)

// Words is the fixed bitmap width of the production sketch in 64-bit words.
const Words = 2

// Bits is the fixed bitmap width in bits (128).
const Bits = Words * 64

// Sketch is the fixed-width production sketch. The zero value is empty and
// ready to use; it is plain data so a host's per-bucket array stays flat.
type Sketch [Words]uint64

// Insert sets the bit selected by a flow hash.
func (s *Sketch) Insert(hash uint64) {
	b := hash % Bits
	s[b/64] |= 1 << (b % 64)
}

// Ones returns the number of set bits.
func (s Sketch) Ones() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no flow was inserted.
func (s Sketch) Empty() bool { return s == Sketch{} }

// Estimate returns the linear-counting estimate of distinct flows inserted.
// A fully saturated bitmap returns the saturation ceiling (~621 for m=128).
func (s Sketch) Estimate() float64 {
	return estimates[s.Ones()]
}

// estimates holds Estimate's value for every count of set bits, so a harvest
// reading thousands of buckets takes no logarithm.
var estimates = func() (t [Bits + 1]float64) {
	for ones := range t {
		t[ones] = estimate(Bits, Bits-ones)
	}
	return t
}()

func estimate(m, zero int) float64 {
	if zero <= 0 {
		// Saturated: report the largest resolvable count, -m ln(1/m).
		return float64(m) * math.Log(float64(m))
	}
	return -float64(m) * math.Log(float64(zero)/float64(m))
}

// Var is a variable-width bitmap sketch used by the sketch-size ablation; it
// behaves identically to Sketch but with m = 64·len(words).
type Var struct {
	words []uint64
}

// NewVar returns a variable sketch with the given width in bits (rounded up
// to a multiple of 64).
func NewVar(bits int) *Var {
	if bits <= 0 {
		bits = 64
	}
	return &Var{words: make([]uint64, (bits+63)/64)}
}

// BitWidth returns the bitmap width in bits.
func (v *Var) BitWidth() int { return len(v.words) * 64 }

// Insert sets the bit selected by a flow hash.
func (v *Var) Insert(hash uint64) {
	m := uint64(v.BitWidth())
	b := hash % m
	v.words[b/64] |= 1 << (b % 64)
}

// Reset clears the sketch.
func (v *Var) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Estimate returns the linear-counting estimate.
func (v *Var) Estimate() float64 {
	ones := 0
	for _, w := range v.words {
		ones += bits.OnesCount64(w)
	}
	m := v.BitWidth()
	return estimate(m, m-ones)
}
