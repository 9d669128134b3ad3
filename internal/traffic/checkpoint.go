package traffic

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"h3cdn/internal/cdn"
)

// CheckpointVersion guards the on-disk format; a mismatch fails the
// load rather than resuming from state with different semantics.
const CheckpointVersion = 2

// UserMemory is one user's durable cross-session state — just the
// learned Alt-Svc hosts. Users with nothing learned are omitted
// entirely, so the checkpoint stays sparse in the population size.
type UserMemory struct {
	User   int      `json:"user"`
	AltSvc []string `json:"altSvc"`
}

// EdgeCache is one provider edge's cache dump.
type EdgeCache struct {
	Provider string           `json:"provider"`
	Entries  []cdn.CacheEntry `json:"entries"`
}

// Checkpoint is one traffic shard's complete resumable state, written
// atomically after every epoch. Resuming from epoch k reproduces the
// uninterrupted run byte-for-byte: epochs run in fresh universes whose
// randomness is derived from (seed, epoch), so the only state that
// crosses the boundary is exactly what is recorded here — caches, user
// memory, the clock, and the accumulated results. An uninterrupted
// shard keeps that state in memory and never reads a checkpoint; a
// resumed one restores it, and each part restores to state that acts
// as the saved state did (a cache dump, least recent first, rebuilds
// the cache's contents, expiries and recency order).
type Checkpoint struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Config is a digest of every campaign setting that shapes the
	// shard's results (computed by internal/core). A checkpoint resumes
	// only under the digest it was written with.
	Config string `json:"config"`
	// Epoch is the next epoch to run (epochs [0, Epoch) are folded in).
	Epoch int `json:"epoch"`
	// Clock is the campaign-absolute virtual time the next epoch starts
	// at (≥ Epoch·EpochInterval when an epoch ran long).
	Clock time.Duration `json:"clock"`

	Users []UserMemory `json:"users,omitempty"`
	Edges []EdgeCache  `json:"edges,omitempty"`

	// Sink is the shard's accumulated results so far — metric
	// accumulator, retained PageLogs or their sampling reservoir, engine
	// counters, traffic report — in the JSON form of internal/core's visit sink, which
	// owns those types; opaque here.
	Sink json.RawMessage `json:"sink"`
}

// Save writes the checkpoint atomically (temp file + rename), so a kill
// mid-write leaves the previous epoch's checkpoint intact.
func Save(path string, cp *Checkpoint) error {
	cp.Version = CheckpointVersion
	blob, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("traffic: marshal checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return fmt.Errorf("traffic: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("traffic: commit checkpoint: %w", err)
	}
	return nil
}

// Load reads a checkpoint; a missing file returns (nil, nil) — a cold
// start, not an error.
func Load(path string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("traffic: read checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("traffic: parse checkpoint %s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("traffic: checkpoint %s version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	return &cp, nil
}
