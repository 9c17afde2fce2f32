package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Dataset is a whole collection day decoded into memory: what
// dataset.Reader.Dataset fills so the canonical Digest can be taken. Nothing
// generates or analyses through it — the sharded store is the dataset.
type Dataset struct {
	Cfg   Config
	Racks []RackMeta
	Runs  []RunSummary
}

// Digest returns a sha256 hex digest over the dataset's JSON-encoded Racks
// and Runs. It is the determinism fingerprint of a collection day: two
// datasets generated from the same Config (Workers aside — the schedule is
// worker-count independent) must digest identically, which the golden test
// and the gen-full / gen-hybrid benchmark workloads use to catch accidental
// behavior changes in the hot path. Cfg is excluded because Workers defaults
// to GOMAXPROCS and is therefore machine-dependent.
//
// JSON rather than gob: gob's wire bytes depend on the process-global order
// in which types were first encoded, so an unrelated earlier gob encode in
// the same process would change the digest of identical data. JSON encoding
// is a pure function of the value.
func (d *Dataset) Digest() (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(d.Racks); err != nil {
		return "", err
	}
	if err := enc.Encode(d.Runs); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
