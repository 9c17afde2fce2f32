package dataset

import (
	"context"
	"fmt"

	"repro/internal/fleet"
)

// Progress describes one newly completed shard during GenerateDir.
type Progress struct {
	// Done counts complete shards including ones resumed from a previous
	// invocation; Total is the full shard count.
	Done, Total int
	// Region/ID identify the shard that just committed; Runs is its
	// rack-hour count.
	Region string
	ID     int
	Runs   int
}

// progressSink wraps a ShardWriter to report progress after each commit.
type progressSink struct {
	sw *ShardWriter
	w  *Writer
	fn func(Progress)
}

func (s *progressSink) Run(r fleet.RunSummary) error { return s.sw.Run(r) }

func (s *progressSink) Commit(meta fleet.RackMeta) error {
	if err := s.sw.Commit(meta); err != nil {
		return err
	}
	if s.fn != nil {
		done, total := s.w.Progress()
		s.fn(Progress{Done: done, Total: total, Region: meta.Region, ID: meta.ID, Runs: s.sw.p.Runs})
	}
	return nil
}

// GenerateDir generates (or resumes) a sharded dataset in dir. Completed,
// digest-verified shards from a previous invocation are skipped; every
// remaining rack streams its rack-hours to its shard as its worker finishes
// them, so the process can be killed and re-invoked at any point and the
// finished dataset is identical to an uninterrupted run's. progress, if
// non-nil, is called after every newly committed shard (from worker
// goroutines, serialized per call by the manifest lock's release order but
// not globally ordered).
//
// Cancelling ctx aborts cleanly between rack-hours: open shards exist only
// in memory and are dropped, committed shards stay, and the error is
// ctx.Err(). Re-invoking resumes from the committed shards.
func GenerateDir(ctx context.Context, dir string, cfg fleet.Config, progress func(Progress)) (*Reader, error) {
	w, err := Create(dir, cfg)
	if err != nil {
		return nil, err
	}
	err = fleet.GenerateStream(ctx, cfg, fleet.StreamOpts{
		Skip: w.Done,
		Begin: func(meta fleet.RackMeta) (fleet.RackSink, error) {
			sw, err := w.Begin(meta)
			if err != nil {
				return nil, err
			}
			return &progressSink{sw: sw, w: w, fn: progress}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if err := w.Finalize(); err != nil {
		return nil, err
	}
	return Open(dir)
}

// EncodeShard simulates exactly one rack of cfg and returns its shard as an
// in-memory payload — the unit of work a distributed worker computes. The
// bytes come from the same ShardWriter as local generation, so
// Writer.InstallShard yields a file byte-identical to one GenerateDir would
// have written; determinism is in (cfg, region, id) only.
func EncodeShard(ctx context.Context, cfg fleet.Config, region string, id int) (*ShardPayload, error) {
	// One rack means one worker; don't spin up idle goroutines.
	cfg.Workers = 1
	var out *ShardPayload
	err := fleet.GenerateStream(ctx, cfg, fleet.StreamOpts{
		Skip: func(r string, i int) bool { return r != region || i != id },
		Begin: func(meta fleet.RackMeta) (fleet.RackSink, error) {
			return newShardWriter(meta.Region, meta.ID, func(p *ShardPayload) error {
				out = p
				return nil
			})
		},
	})
	if err != nil {
		return nil, err
	}
	if out == nil {
		return nil, fmt.Errorf("dataset: rack %s/%d not in config", region, id)
	}
	return out, nil
}
