package switchsim

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	for _, ports := range []int{1, 8, 16, 48} {
		if err := DefaultConfig(ports).Validate(); err != nil {
			t.Errorf("DefaultConfig(%d): %v", ports, err)
		}
	}
	// The zero-value knobs (Alpha, ECNThreshold, TotalBuffer, ...) mean "use
	// the production default" and must stay valid.
	if err := (Config{Ports: 4}).Validate(); err != nil {
		t.Errorf("minimal config: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := func() Config { return DefaultConfig(16) }
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"no ports", func(c *Config) { c.Ports = 0 }, "port"},
		{"unknown policy", func(c *Config) { c.Policy = Policy(7) }, "unknown sharing policy"},
		{"negative policy", func(c *Config) { c.Policy = Policy(-1) }, "unknown sharing policy"},
		{"negative alpha", func(c *Config) { c.Alpha = -0.5 }, "Alpha"},
		{"NaN alpha", func(c *Config) { c.Alpha = math.NaN() }, "Alpha"},
		{"Inf alpha", func(c *Config) { c.Alpha = math.Inf(1) }, "Alpha"},
		{"negative ECN", func(c *Config) { c.ECNThreshold = -2 }, "ECN threshold"},
		{"ECN beyond buffer", func(c *Config) { c.ECNThreshold = 32 << 20 }, "ECN threshold"},
		{"negative BShare delay", func(c *Config) { c.Policy = PolicyBShare; c.BShareDelayTarget = -1 }, "BShare delay"},
		{"reserves eat the pool", func(c *Config) { c.DedicatedPerQueue = 2 << 20 }, "dedicated reserves"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateZeroAlphaUnderEveryPolicy(t *testing.T) {
	// Zero means "default", and the default α is 1, so a spec that zeroes α
	// validates whatever policy it names.
	for _, pol := range KnownPolicies() {
		cfg := DefaultConfig(8)
		cfg.Policy = pol
		cfg.Alpha = 0
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v with zero alpha: %v", pol, err)
		}
	}
}

func TestValidateECNOff(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.ECNThreshold = ECNOff
	if err := cfg.Validate(); err != nil {
		t.Errorf("ECNOff rejected: %v", err)
	}
	// The sentinel must survive withDefaults — if the zero-value backfill
	// caught it, "marking disabled" would silently become "default 120 KB".
	if got := cfg.withDefaults().ECNThreshold; got != ECNOff {
		t.Errorf("withDefaults rewrote ECNOff to %d", got)
	}
}

func TestPolicyKnown(t *testing.T) {
	for _, p := range KnownPolicies() {
		if !p.Known() {
			t.Errorf("%v.Known() = false", p)
		}
	}
	for _, p := range []Policy{Policy(-1), Policy(5), Policy(99)} {
		if p.Known() {
			t.Errorf("Policy(%d).Known() = true", int(p))
		}
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range KnownPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	short := map[string]Policy{
		"dt": PolicyDT, "DT": PolicyDT,
		"static": PolicyStatic, " Complete ": PolicyComplete,
		"bshare": PolicyBShare, "ABM": PolicyABM,
	}
	for s, want := range short {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v (want %v)", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("wfq"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}

func TestPolicyJSONRoundTrip(t *testing.T) {
	type doc struct {
		P Policy `json:"p"`
	}
	for _, p := range KnownPolicies() {
		b, err := json.Marshal(doc{P: p})
		if err != nil {
			t.Fatalf("marshal %v: %v", p, err)
		}
		if want := `{"p":"` + p.String() + `"}`; string(b) != want {
			t.Errorf("marshal %v = %s, want %s", p, b, want)
		}
		var d doc
		if err := json.Unmarshal(b, &d); err != nil || d.P != p {
			t.Errorf("unmarshal %s = %v, %v", b, d.P, err)
		}
	}
	if _, err := json.Marshal(doc{P: Policy(9)}); err == nil {
		t.Error("marshal accepted an unknown policy")
	}
	var d doc
	if err := json.Unmarshal([]byte(`{"p":"fifo-drop"}`), &d); err == nil {
		t.Error("unmarshal accepted an unknown policy name")
	}
}

func TestPolicyStringUnknown(t *testing.T) {
	if s := Policy(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown policy String() = %q, want the raw value surfaced", s)
	}
}
