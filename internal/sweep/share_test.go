package sweep

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/fleet"
	"repro/internal/fsutil"
	"repro/internal/switchsim"
)

// TestSharedPointsMatchSolo is the sharing oracle: every point file Run
// writes, whichever rack-hours it took from an earlier point's run, must be
// byte-equal to the point computed alone by ComputePoint, at one worker and
// at three; and a completed Run must leave no shared outcome behind.
func TestSharedPointsMatchSolo(t *testing.T) {
	for _, fid := range []fleet.Fidelity{fleet.FidelityFull, fleet.FidelityHybrid} {
		t.Run(string(fid)+"-fidelity", func(t *testing.T) {
			s := Spec{
				Name:     "zoo",
				Fleet:    tinyFleet(37),
				Policies: switchsim.KnownPolicies(),
				Alphas:   []float64{0.5, 1, 2},
			}
			s.Fleet.Fidelity = fid
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

			for _, workers := range []int{1, 3} {
				dir := filepath.Join(t.TempDir(), "sw")
				held := -1
				var shared atomic.Int64
				_, err := Run(ctx, dir, s, Options{
					Workers:    workers,
					Progress:   func(p Progress) { shared.Add(int64(p.Shared)) },
					sharerHook: func(sh *sharer) { held = sh.held() },
				})
				if err != nil {
					t.Fatal(err)
				}
				if held != 0 {
					t.Errorf("workers %d: the sharer holds %d outcomes after Run", workers, held)
				}
				if workers == 1 && shared.Load() == 0 {
					t.Error("no rack-hour was shared: the oracle compared nothing")
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

// held returns the number of entries no point has taken yet.
func (sh *sharer) held() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.entries)
}
