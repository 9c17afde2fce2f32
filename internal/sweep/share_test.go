package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/switchsim"
)

// zooSpec is the five policies at three alphas over tinyFleet: 9 points, 2
// racks, one hour.
func zooSpec(fid fleet.Fidelity) Spec {
	s := Spec{
		Name:     "zoo",
		Fleet:    tinyFleet(37),
		Policies: switchsim.KnownPolicies(),
		Alphas:   []float64{0.5, 1, 2},
	}
	s.Fleet.Fidelity = fid
	return s
}

// TestSharedPointsMatchSolo is the sharing oracle: every point file Run
// writes, whichever rack-hours it took from an earlier point's run, must be
// byte-equal to the point computed alone by ComputePoint, at every width.
// Which rack-hours are shared must not depend on the width either: each
// point's Progress.Shared is the same at 1, 2 and 4 workers and sums to a
// pinned total. Points arrive in grid order.
func TestSharedPointsMatchSolo(t *testing.T) {
	for _, tc := range []struct {
		fid    fleet.Fidelity
		shared int // of 9 points × 2 rack-hours
	}{
		{fleet.FidelityFull, 10},
		{fleet.FidelityHybrid, 9},
	} {
		t.Run(string(tc.fid)+"-fidelity", func(t *testing.T) {
			s := zooSpec(tc.fid)
			pts, err := s.Expand()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			solo := make([][]byte, len(pts))
			var classes map[string]string
			for i, pt := range pts {
				pr, cls, err := ComputePoint(ctx, s.Fleet.WithDefaults(), pt, 2, classes)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					classes = cls
				}
				if solo[i], err = fsutil.MarshalJSON(pr); err != nil {
					t.Fatal(err)
				}
			}

			var first []int // Progress.Shared by point at the first width
			for _, workers := range []int{1, 2, 4} {
				dir := filepath.Join(t.TempDir(), "sw")
				shared := make([]int, len(pts))
				last := -1
				_, err := Run(ctx, dir, s, Options{
					Workers: workers,
					Progress: func(p Progress) {
						if p.Index <= last {
							t.Errorf("workers %d: point %d committed after point %d", workers, p.Index, last)
						}
						last = p.Index
						shared[p.Index] = p.Shared
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				for _, n := range shared {
					total += n
				}
				if total != tc.shared {
					t.Errorf("workers %d: %d rack-hours shared (by point %v), want %d", workers, total, shared, tc.shared)
				}
				if first == nil {
					first = shared
				} else if !slices.Equal(shared, first) {
					t.Errorf("workers %d: shared by point %v, at 1 worker %v", workers, shared, first)
				}
				for i := range pts {
					got, err := os.ReadFile(filepath.Join(dir, pointFileName(i)))
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(solo[i]) {
						t.Errorf("workers %d: point %d (%s) differs from its solo run", workers, i, pts[i].Label)
					}
				}
			}
		})
	}
}

// TestLanesMatchRun is the distributed sweep's oracle: ComputeLane for every
// rack over the zoo grid, folded by CommitLanes, writes point files byte-equal
// to Run's and shares exactly the rack-hours Run shares. A directory whose
// first two points Run committed (MaxPoints) finishes through lanes over the
// remaining points at Run's ResultDigest.
func TestLanesMatchRun(t *testing.T) {
	for _, tc := range []struct {
		fid    fleet.Fidelity
		shared int // of 9 points × 2 rack-hours, as in TestSharedPointsMatchSolo
	}{
		{fleet.FidelityFull, 10},
		{fleet.FidelityHybrid, 9},
	} {
		t.Run(string(tc.fid)+"-fidelity", func(t *testing.T) {
			s := zooSpec(tc.fid)
			ctx := context.Background()
			runDir := filepath.Join(t.TempDir(), "run")
			runShared := 0
			want, err := Run(ctx, runDir, s, Options{Workers: 2, Progress: func(p Progress) { runShared += p.Shared }})
			if err != nil {
				t.Fatal(err)
			}
			if runShared != tc.shared {
				t.Errorf("Run shared %d rack-hours, want %d", runShared, tc.shared)
			}

			// byLanes finishes dir's pending points the way a distributed
			// sweep does and returns the rack-hours its lanes shared.
			byLanes := func(dir string) (*Result, int) {
				st, err := Create(dir, s)
				if err != nil {
					t.Fatal(err)
				}
				pts := st.Pending()
				var lanes [][]RackTally
				shared := 0
				for _, r := range fleet.BuildRacks(s.Fleet) {
					lane, err := ComputeLane(ctx, s.Fleet.Stored(), pts, r.Region, r.ID)
					if err != nil {
						t.Fatal(err)
					}
					for _, rt := range lane {
						shared += rt.Shared
					}
					lanes = append(lanes, lane)
				}
				if err := st.CommitLanes(pts, lanes); err != nil {
					t.Fatal(err)
				}
				if err := st.Finalize(); err != nil {
					t.Fatal(err)
				}
				res, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				return res, shared
			}

			laneDir := filepath.Join(t.TempDir(), "lanes")
			got, shared := byLanes(laneDir)
			if shared != runShared {
				t.Errorf("lanes shared %d rack-hours, Run %d", shared, runShared)
			}
			for i := range want.Points {
				a, err := os.ReadFile(filepath.Join(runDir, pointFileName(i)))
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(filepath.Join(laneDir, pointFileName(i)))
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Errorf("point %d (%s): lane fold differs from Run", i, want.Points[i].Label)
				}
			}
			if got.Manifest.ResultDigest != want.Manifest.ResultDigest {
				t.Errorf("lanes digest %s, Run %s", got.Manifest.ResultDigest, want.Manifest.ResultDigest)
			}

			resumed := filepath.Join(t.TempDir(), "resumed")
			if _, err := Run(ctx, resumed, s, Options{Workers: 2, MaxPoints: 2}); !errors.Is(err, ErrIncomplete) {
				t.Fatalf("MaxPoints run returned %v, want ErrIncomplete", err)
			}
			if got, _ := byLanes(resumed); got.Manifest.ResultDigest != want.Manifest.ResultDigest {
				t.Errorf("resumed lanes digest %s, Run %s", got.Manifest.ResultDigest, want.Manifest.ResultDigest)
			}
		})
	}
}
