package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseYAMLShapes(t *testing.T) {
	src := `
# a comment
name: demo            # trailing comment
shape: {m: 8, n: 64}
tags: [a, "b c", d]
devices:
  count: 3
  nested:
    deep: yes
load:
  - {from: 0s, rps: 100}
  - from: 5s
    to: 9s
    rps: 250
plain:
  - one
  - "two # not a comment"
when: 12:30
empty:
`
	got, lines, err := parseYAML([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := map[string]any{
		"name":  "demo",
		"shape": map[string]any{"m": "8", "n": "64"},
		"tags":  []any{"a", "b c", "d"},
		"devices": map[string]any{
			"count":  "3",
			"nested": map[string]any{"deep": "yes"},
		},
		"load": []any{
			map[string]any{"from": "0s", "rps": "100"},
			map[string]any{"from": "5s", "to": "9s", "rps": "250"},
		},
		"plain": []any{"one", "two # not a comment"},
		"when":  "12:30",
		"empty": "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse mismatch:\n got %#v\nwant %#v", got, want)
	}
	// The key-line map points every path at its source line, including
	// flow-map entries (which share their container's line) and keys
	// inside list items.
	for path, wantNo := range map[string]int{
		"name":                3,
		"shape.m":             4,
		"devices.nested.deep": 9,
		"load[0].rps":         11,
		"load[1].to":          13,
	} {
		if lines[path] != wantNo {
			t.Errorf("line of %q = %d, want %d", path, lines[path], wantNo)
		}
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"tab indent", "a:\n\tb: 1", "tabs"},
		{"duplicate key", "a: 1\na: 2", "duplicate key"},
		{"list in map", "a: 1\n- b", "list item"},
		{"map in list", "x:\n  - a\n  b: 1", "map key"},
		{"indented top", "  a: 1", "top level"},
		{"bad flow map", "a: {b}", "flow map"},
		{"unterminated flow", "a: [1, 2", "unterminated"},
		{"empty list item", "a:\n  -", "empty list item"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := parseYAML([]byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestDecodeDefaultsAndTimeline(t *testing.T) {
	sc, err := Decode([]byte(`
load:
  - {rps: 50}
events:
  - {at: 2s, device: 1, kind: healed}
  - {at: 1s, device: 0, kind: xid, xid: 79}
`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sc.Tick != 100*time.Millisecond || sc.Duration != 10*time.Second {
		t.Fatalf("time defaults: tick %v duration %v", sc.Tick, sc.Duration)
	}
	if sc.M != 8 || sc.N != 64 || sc.Devices != 3 || sc.Variants != 4 {
		t.Fatalf("shape/device defaults: %+v", sc)
	}
	// The load phase's To defaults to the scenario duration.
	if sc.Load[0].To != sc.Duration || sc.Load[0].RPS != 50 {
		t.Fatalf("load = %+v", sc.Load[0])
	}
	// Events come out sorted by At.
	if sc.Events[0].At != time.Second || sc.Events[0].XID != 79 {
		t.Fatalf("events not sorted: %+v", sc.Events)
	}
	// Correctness is always asserted even with no assert block.
	if sc.Assert.MinServed != 0 || sc.Assert.rejectedSet {
		t.Fatalf("assert defaults: %+v", sc.Assert)
	}
}

func TestDecodeStrictness(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown top key", "rps: 5\nload:\n  - {rps: 1}", `unknown key "rps"`},
		{"unknown nested key", "devices:\n  cuont: 3\nload:\n  - {rps: 1}", `unknown key "cuont"`},
		// The canonical typo: the error must name the source line.
		{"typo names its line", "load:\n  - {rps: 1}\ndistributed:\n  n: 2049\n  vicitms: [1]",
			`line 5: distributed: unknown key "vicitms"`},
		{"flow typo names its line", "load:\n  - {rps: 1}\nshape: {m: 8, m_rows: 9}",
			`line 3: shape: unknown key "m_rows"`},
		{"bad kind", "load:\n  - {rps: 1}\nevents:\n  - {at: 1s, device: 0, kind: sharknado}", "sharknado"},
		{"missing kind", "load:\n  - {rps: 1}\nevents:\n  - {at: 1s, device: 0}", "missing kind"},
		{"bad int", "variants: soon\nload:\n  - {rps: 1}", "not an integer"},
		{"bad duration", "tick: fast\nload:\n  - {rps: 1}", "not a duration"},
		{"no load", "name: x", "no load phases"},
		{"event device range", "load:\n  - {rps: 1}\nevents:\n  - {at: 1s, device: 9, kind: xid}", "out of range"},
		{"too many devices", "devices:\n  count: 65\nload:\n  - {rps: 1}", "1..64"},
		// Every knob that sizes the run is bounded: a scenario file is
		// untrusted input. Rejected by Decode, before anything runs.
		{"requests per tick", "tick: 1s\nload:\n  - {rps: 1001}", "requests per tick"},
		{"overlapping phases add", "tick: 1s\nload:\n  - {rps: 600}\n  - {from: 2s, to: 4s, rps: 600}", "over 1000"},
		{"non-finite rps", "load:\n  - {rps: NaN}", "non-negative number"},
		{"negative rps", "load:\n  - {rps: -1}", "non-negative number"},
		{"shape elements", "shape: {m: 256, n: 257}\nload:\n  - {rps: 1}", "over 65536 elements"},
		{"shape overflow", "shape: {m: 4611686018427387904, n: 4}\nload:\n  - {rps: 1}", "over 65536 elements"},
		{"variants", "variants: 17\nload:\n  - {rps: 1}", "1..16"},
		{"capacity", "pool:\n  capacity: 17\nload:\n  - {rps: 1}", "0..16"},
		{"queue", "pool:\n  queue: 4097\nload:\n  - {rps: 1}", "over 4096"},
		{"distributed elements", "load:\n  - {rps: 1}\ndistributed:\n  m: 2\n  n: 131073", "over 262144 elements"},
		{"NaN straggler factor", "load:\n  - {rps: 1}\ndistributed:\n  n: 129\ngray:\n  straggler: {device: 1, factor: NaN}", "must be > 1"},
		{"NaN flaky rate", "load:\n  - {rps: 1}\ndistributed:\n  n: 129\ngray:\n  flaky: {device: 1, rate: NaN}", "must be in (0, 1)"},
		{"NaN fault rate", "load:\n  - {rps: 1}\nfaults:\n  rate: NaN", "faults.rate NaN must be in [0, 1]"},
		{"negative fault rate", "load:\n  - {rps: 1}\nfaults:\n  rate: -3", "must be in [0, 1]"},
		{"fault rate over 1", "load:\n  - {rps: 1}\nfaults:\n  rate: 7", "must be in [0, 1]"},
		{"NaN max_rejected_frac", "load:\n  - {rps: 1}\nassert:\n  max_rejected_frac: NaN", "max_rejected_frac NaN must be in [0, 1]"},
		{"max_rejected_frac over 1", "load:\n  - {rps: 1}\nassert:\n  max_rejected_frac: 1.5", "must be in [0, 1]"},
		{"distributed count", "load:\n  - {rps: 1}\ndistributed:\n  count: 101\n  every: 1ms", "over 100"},
		// Fleet policy that is fixed in code is not a scenario key.
		{"corrected_ecc_limit", "load:\n  - {rps: 1}\npolicy:\n  corrected_ecc_limit: 3",
			`line 4: policy: unknown key "corrected_ecc_limit"`},
		{"reroute_attempts", "load:\n  - {rps: 1}\npolicy:\n  reroute_attempts: 2",
			`line 4: policy: unknown key "reroute_attempts"`},
		{"scale_up_at", "load:\n  - {rps: 1}\npolicy:\n  scale_up_at: 1.5",
			`line 4: policy: unknown key "scale_up_at"`},
		{"scale_down_at", "load:\n  - {rps: 1}\npolicy:\n  scale_down_at: 0.25",
			`line 4: policy: unknown key "scale_down_at"`},
		{"straggler_ratio", "load:\n  - {rps: 1}\ngray:\n  straggler_ratio: 2.5",
			`line 4: gray: unknown key "straggler_ratio"`},
		{"min_samples", "load:\n  - {rps: 1}\ngray:\n  min_samples: 2",
			`line 4: gray: unknown key "min_samples"`},
		{"disable_hedge", "load:\n  - {rps: 1}\ngray:\n  disable_hedge: true",
			`line 4: gray: unknown key "disable_hedge"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode([]byte(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestLoadCannedScenarios(t *testing.T) {
	for _, f := range []string{
		"testdata/device_death.yaml",
		"testdata/thermal_autoscale.yaml",
		"testdata/distributed_device_death.yaml",
		"testdata/gray_failure.yaml",
	} {
		sc, err := Load(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if sc.Name == "" || len(sc.Load) == 0 {
			t.Fatalf("%s: incomplete scenario %+v", f, sc)
		}
	}
}
