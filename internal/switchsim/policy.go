package switchsim

import (
	"fmt"
	"strings"
)

// policyEntry binds one sharing discipline's names — its canonical name and
// CLI/spec short form — to its Policy value. The registry below is the single
// source of truth shared by Known, String, ParsePolicy and MarshalText, so
// the set of policies cannot drift apart across those surfaces as disciplines
// are added (the old open-coded range check in Known did exactly that).
type policyEntry struct {
	policy Policy
	name   string // canonical String() form
	short  string // short form accepted by ParsePolicy and CLI flags
}

// policyRegistry lists every defined policy, indexed by its Policy value.
var policyRegistry = []policyEntry{
	{PolicyDT, "dynamic-threshold", "dt"},
	{PolicyStatic, "static-partition", "static"},
	{PolicyComplete, "complete-sharing", "complete"},
	{PolicyBShare, "bshare", "bshare"},
	{PolicyABM, "abm", "abm"},
}

// lookupPolicy resolves a Policy value to its registry entry, nil if unknown.
func lookupPolicy(p Policy) *policyEntry {
	if int(p) < 0 || int(p) >= len(policyRegistry) {
		return nil
	}
	e := &policyRegistry[int(p)]
	if e.policy != p {
		// Registry order out of sync with the constants; the registry test
		// catches this, but never resolve a policy to the wrong entry.
		return nil
	}
	return e
}

// KnownPolicies returns every defined policy in declaration order — the
// enumeration sweep grids and conformance tests iterate.
func KnownPolicies() []Policy {
	out := make([]Policy, len(policyRegistry))
	for i := range policyRegistry {
		out[i] = policyRegistry[i].policy
	}
	return out
}

// Known reports whether p is one of the defined sharing policies. Validate
// rejects unknown values so a config-driven sweep fails fast instead of
// silently falling back to a default discipline mid-grid.
func (p Policy) Known() bool { return lookupPolicy(p) != nil }

func (p Policy) String() string {
	if e := lookupPolicy(p); e != nil {
		return e.name
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy resolves a policy name as it appears in sweep specs and CLI
// flags. Both the short forms and the full String() names are accepted,
// case-insensitively.
func ParsePolicy(s string) (Policy, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	for i := range policyRegistry {
		e := &policyRegistry[i]
		if t == e.short || t == e.name {
			return e.policy, nil
		}
	}
	shorts := make([]string, len(policyRegistry))
	for i := range policyRegistry {
		shorts[i] = policyRegistry[i].short
	}
	return 0, fmt.Errorf("switchsim: unknown policy %q (want %s)", s, strings.Join(shorts, ", "))
}

// MarshalText encodes the policy by name, so JSON sweep specs and dataset
// manifests stay readable and stable if the iota order ever changes.
func (p Policy) MarshalText() ([]byte, error) {
	if !p.Known() {
		return nil, fmt.Errorf("switchsim: cannot encode unknown policy %d", int(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText accepts anything ParsePolicy does.
func (p *Policy) UnmarshalText(text []byte) error {
	v, err := ParsePolicy(string(text))
	if err != nil {
		return err
	}
	*p = v
	return nil
}
