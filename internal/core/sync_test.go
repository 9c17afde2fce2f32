package core

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// refAlignOne is the alignment path the one-pass interpolation replaced:
// every counter series converted to float64, interpolated over the covered
// samples into a fresh slice, then padded with zeros. AlignCollections must
// reproduce it bit for bit.
func refAlignOne(col *HostCollection, port int, start clock.WallTime, interval sim.Time, samples int) ServerSeries {
	ss := ServerSeries{Port: port, Status: col.Status, Host: col.Host}
	r := col.Run
	if r != nil {
		ss.Host = r.Host
		ss.LineRateBps = r.LineRateBps
	}
	zero := func() {
		ss.In = make([]float64, samples)
		ss.InRetx = make([]float64, samples)
		ss.Conns = make([]float64, samples)
	}
	if r == nil || !r.Started {
		zero()
		if col.Status == StatusOK {
			ss.ValidSamples = samples
		}
		return ss
	}
	valid := r.Buckets
	if r.Truncated {
		valid = r.ValidBuckets
	}
	if valid <= 0 {
		zero()
		return ss
	}
	off := float64(int64(start-r.StartWall)) / float64(interval)
	covered := samples
	if r.Truncated {
		validEnd := r.StartWall + clock.WallTime(int64(interval)*int64(valid))
		covered = min(max(int(int64(validEnd-start)/int64(interval)), 0), samples)
	}
	ss.ValidSamples = covered
	ss.In = refResample(r.Bytes[CtrIn][:valid], off, samples, covered)
	ss.InRetx = refResample(r.Bytes[CtrInRetx][:valid], off, samples, covered)
	if r.Conns != nil {
		ss.Conns = refResampleF(r.Conns[:valid], off, samples, covered)
	} else {
		ss.Conns = make([]float64, samples)
	}
	return ss
}

func refResample(src []uint64, off float64, n, covered int) []float64 {
	f := make([]float64, len(src))
	for i, v := range src {
		f[i] = float64(v)
	}
	return refResampleF(f, off, n, covered)
}

func refResampleF(src []float64, off float64, n, covered int) []float64 {
	out := refInterpolate(src, off, covered)
	if covered < n {
		out = append(out, make([]float64, n-covered)...)
	}
	return out
}

func refInterpolate(src []float64, off float64, n int) []float64 {
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		pos := off + float64(j)
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 0:
			out[j] = src[0]
		case i >= len(src)-1:
			out[j] = src[len(src)-1]
		default:
			out[j] = src[i]*(1-frac) + src[i+1]*frac
		}
	}
	return out
}

// randomCollection builds one rack's harvest with every host outcome:
// complete, truncated (starting late, or ending before the others began),
// missing, unsynced and idle, on jittered host clocks so offsets are
// fractional and of either sign.
func randomCollection(rng *sim.RNG) ([]HostCollection, []int) {
	n := 2 + rng.Intn(7)
	cols := make([]HostCollection, n)
	ports := make([]int, n)
	base := clock.WallTime(50 * sim.Millisecond)
	for i := range cols {
		host := netsim.HostID(i + 1)
		ports[i] = i
		cols[i] = HostCollection{Host: host}
		buckets := 5 + rng.Intn(40)
		r := &Run{
			Host: host, Interval: sim.Millisecond, Buckets: buckets,
			Started: true, LineRateBps: 25e9,
			StartWall: base + clock.WallTime(rng.Int63n(int64(3*sim.Millisecond))),
		}
		for k := range r.Bytes {
			r.Bytes[k] = make([]uint64, buckets)
			for j := range r.Bytes[k] {
				r.Bytes[k][j] = rng.Uint64() >> rng.Intn(64)
			}
		}
		if rng.Bool(0.7) {
			r.Conns = make([]float64, buckets)
			for j := range r.Conns {
				r.Conns[j] = rng.Float64() * 600
			}
		}
		switch rng.Intn(6) {
		case 0, 1:
		case 2:
			cols[i].Status = StatusTruncated
			r.Truncated = true
			r.ValidBuckets = rng.Intn(buckets + 1)
			// Shift by up to ±20 ms: a late start gives a negative offset,
			// an early one can end before the common window begins.
			r.StartWall += clock.WallTime(rng.Int63n(int64(40*sim.Millisecond))) - clock.WallTime(20*sim.Millisecond)
		case 3:
			cols[i].Status = StatusMissing
			r = nil
		case 4:
			cols[i].Status = StatusUnsynced
			r = nil
		case 5:
			r.Started = false
		}
		cols[i].Run = r
	}
	return cols, ports
}

// TestAlignMatchesReference compares AlignCollections against the old
// convert-interpolate-pad path bit for bit over seeded random harvests, and
// checks that the series sharing one backing array cannot spill into each
// other.
func TestAlignMatchesReference(t *testing.T) {
	rng := sim.NewRNG(38)
	var aligned, negOff, pastEnd, short int
	check := func(cols []HostCollection, ports []int) {
		t.Helper()
		sr, err := AlignCollections(cols, ports)
		if err != nil {
			return // no common window: nothing is aligned
		}
		aligned++
		for i := range cols {
			got := sr.Servers[i]
			want := refAlignOne(&cols[i], ports[i], sr.StartWall, sr.Interval, sr.Samples)
			if got.Host != want.Host || got.Port != want.Port || got.LineRateBps != want.LineRateBps ||
				got.Status != want.Status || got.ValidSamples != want.ValidSamples {
				t.Fatalf("host %d: header %+v, want %+v", i, got, want)
			}
			gs := [...][]float64{got.In, got.InRetx, got.Conns}
			ws := [...][]float64{want.In, want.InRetx, want.Conns}
			for k := range gs {
				if len(gs[k]) != len(ws[k]) {
					t.Fatalf("host %d series %d: %d samples, want %d", i, k, len(gs[k]), len(ws[k]))
				}
				for j := range gs[k] {
					if math.Float64bits(gs[k][j]) != math.Float64bits(ws[k][j]) {
						t.Fatalf("host %d series %d sample %d: %v, want %v", i, k, j, gs[k][j], ws[k][j])
					}
				}
			}
			retx0 := math.Float64bits(got.InRetx[0])
			_ = append(got.In, 1)
			if math.Float64bits(got.InRetx[0]) != retx0 {
				t.Fatalf("host %d: appending to In overwrote InRetx[0]", i)
			}

			r := cols[i].Run
			if r == nil || !r.Started || got.ValidSamples == 0 {
				continue
			}
			valid := r.Buckets
			if r.Truncated {
				valid = r.ValidBuckets
			}
			off := float64(int64(sr.StartWall-r.StartWall)) / float64(sr.Interval)
			if off < 0 {
				negOff++
			}
			if off+float64(got.ValidSamples-1) >= float64(valid-1) {
				pastEnd++
			}
			if got.ValidSamples < sr.Samples {
				short++
			}
		}
	}

	// TestAlignNegativeOffsetClockSkew's skewed pair.
	check([]HostCollection{
		{Host: 1, Run: mkRun(1, 10, clock.WallTime(5*sim.Millisecond), 100)},
		{Host: 2, Run: mkRun(2, 10, clock.WallTime(2*sim.Millisecond), 40)},
	}, []int{0, 1})
	for range 400 {
		check(randomCollection(rng))
	}
	if aligned < 300 || negOff == 0 || pastEnd == 0 || short == 0 {
		t.Fatalf("generator coverage: %d aligned, %d negative offsets, %d past the last bucket, %d short covers",
			aligned, negOff, pastEnd, short)
	}
	t.Logf("%d collections aligned: %d negative offsets, %d past the last bucket, %d short covers",
		aligned, negOff, pastEnd, short)
}
