package sketch

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestEmptySketch(t *testing.T) {
	var s Sketch
	if !s.Empty() || s.Ones() != 0 || s.Estimate() != 0 {
		t.Errorf("zero sketch: empty=%v ones=%d est=%v", s.Empty(), s.Ones(), s.Estimate())
	}
}

func TestSingleFlow(t *testing.T) {
	var s Sketch
	for i := 0; i < 100; i++ {
		s.Insert(0xdeadbeef) // same flow repeatedly
	}
	if s.Ones() != 1 {
		t.Errorf("one flow set %d bits", s.Ones())
	}
	if est := s.Estimate(); math.Abs(est-1) > 0.1 {
		t.Errorf("one flow estimated as %v", est)
	}
}

func TestPreciseUpToADozen(t *testing.T) {
	// The paper's stated property: precise up to about a dozen connections.
	rng := sim.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		var s Sketch
		n := 12
		for i := 0; i < n; i++ {
			s.Insert(rng.Uint64())
		}
		est := s.Estimate()
		if math.Abs(est-float64(n)) > 3 {
			t.Errorf("trial %d: %d flows estimated as %.1f", trial, n, est)
		}
	}
}

func TestAccuracyAcrossRange(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, n := range []int{1, 5, 20, 50, 100, 200} {
		// Average over trials: linear counting is unbiased but noisy.
		const trials = 200
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			var s Sketch
			for i := 0; i < n; i++ {
				s.Insert(rng.Uint64())
			}
			sum += s.Estimate()
		}
		mean := sum / trials
		if math.Abs(mean-float64(n)) > float64(n)*0.15+2 {
			t.Errorf("n=%d mean estimate %.1f", n, mean)
		}
	}
}

func TestSaturatesAroundFiveHundred(t *testing.T) {
	rng := sim.NewRNG(9)
	var s Sketch
	for i := 0; i < 5000; i++ {
		s.Insert(rng.Uint64())
	}
	est := s.Estimate()
	// Saturation ceiling for m=128 is 128*ln(128) ~ 621.
	if est < 400 || est > 700 {
		t.Errorf("saturated estimate = %v, want a ceiling in the 400-700 range", est)
	}
}

// TestEstimateTable checks Estimate's precomputed table against the formula
// bit for bit, for every count of set bits a Sketch can hold.
func TestEstimateTable(t *testing.T) {
	var s Sketch
	for ones := 0; ones <= Bits; ones++ {
		if got, want := s.Estimate(), estimate(Bits, Bits-ones); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%d ones: Estimate = %v, want %v", ones, got, want)
		}
		if ones < Bits {
			s.Insert(uint64(ones))
		}
	}
}

func TestEstimateMonotoneInOnes(t *testing.T) {
	prev := 0.0
	var s Sketch
	rng := sim.NewRNG(11)
	for i := 0; i < 1000; i++ {
		s.Insert(rng.Uint64())
		est := s.Estimate()
		if est < prev {
			t.Fatalf("estimate decreased from %v to %v", prev, est)
		}
		prev = est
	}
}

func TestVarWidths(t *testing.T) {
	rng := sim.NewRNG(13)
	for _, bits := range []int{64, 128, 256, 1024} {
		v := NewVar(bits)
		if v.BitWidth() != bits {
			t.Fatalf("width %d got %d", bits, v.BitWidth())
		}
		const n = 40
		const trials = 100
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			v.Reset()
			for i := 0; i < n; i++ {
				v.Insert(rng.Uint64())
			}
			sum += v.Estimate()
		}
		mean := sum / trials
		if math.Abs(mean-n) > n*0.25+2 {
			t.Errorf("width %d: n=%d mean estimate %.1f", bits, n, mean)
		}
	}
}

func TestVarDefaultsTo64(t *testing.T) {
	if NewVar(0).BitWidth() != 64 {
		t.Error("NewVar(0) should default to 64 bits")
	}
}

func BenchmarkSketchInsert(b *testing.B) {
	var s Sketch
	for i := 0; i < b.N; i++ {
		s.Insert(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkSketchEstimate(b *testing.B) {
	var s Sketch
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		s.Insert(rng.Uint64())
	}
	for i := 0; i < b.N; i++ {
		_ = s.Estimate()
	}
}
