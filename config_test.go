package oostream

import (
	"strings"
	"testing"
)

// TestConfigValidateRejections pins every rejection the facade config
// makes, so an accidental relaxation (or a new strategy forgetting a
// compatibility rule) fails loudly. Each case must be rejected with a
// message containing the fragment.
func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative K", Config{K: -1}, "K must be >= 0"},
		// The in-order engine is a reference kernel, not a strategy: a
		// config written for it is refused, whatever else it sets.
		{"trigger-opt without the kernel", Config{Strategy: "inorder", DisableTriggerOpt: true}, `unknown strategy "inorder"`},
		{"purge cadence without the kernel", Config{Strategy: "inorder", PurgeEvery: 16}, `unknown strategy "inorder"`},
		{"negative initial K", Config{K: -1, Adaptive: Adaptive{Enabled: true}}, "K must be >= 0"},
		{"quantile out of range", Config{Adaptive: Adaptive{Enabled: true, Quantile: 1.5}}, "Adaptive"},
		{"margin below one", Config{Adaptive: Adaptive{Enabled: true, Margin: 0.5}}, "Adaptive"},
		{"min above max", Config{Adaptive: Adaptive{Enabled: true, MinK: 10, Limits: Limits{MaxLag: 5}}}, "Adaptive"},
		{"negative buffer limit", Config{Adaptive: Adaptive{Limits: Limits{MaxBufferedEvents: -1}}}, "Adaptive"},
		{"adaptive inorder", Config{Strategy: "inorder", Adaptive: Adaptive{Enabled: true}}, `unknown strategy "inorder"`},
		{"limits inorder", Config{Strategy: "inorder", Adaptive: Adaptive{Limits: Limits{MaxBufferedEvents: 10}}}, `unknown strategy "inorder"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.withDefaults().validate()
			if err == nil {
				t.Fatalf("config %+v accepted, want rejection containing %q", tc.cfg, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

// TestConfigValidateAccepts pins the combinations that must keep working.
func TestConfigValidateAccepts(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero value", Config{}},
		{"static kslack", Config{Strategy: StrategyKSlack, K: 100}},
		{"adaptive native", Config{K: 100, Adaptive: Adaptive{Enabled: true}}},
		{"adaptive kslack with limits", Config{Strategy: StrategyKSlack, K: 100,
			Adaptive: Adaptive{Enabled: true, Limits: Limits{MaxBufferedEvents: 1000}}}},
		{"limits only (degradation without dynamic K)", Config{Strategy: StrategySpeculate, K: 50,
			Adaptive: Adaptive{Limits: Limits{MaxLag: 500}}}},
		{"hybrid static", Config{Strategy: StrategyHybrid, K: 100}},
		{"hybrid adaptive with SLO", Config{Strategy: StrategyHybrid, K: 100,
			Adaptive: Adaptive{Enabled: true, SLO: SLO{MaxLatency: 200, MaxRetractionRate: 0.05}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.withDefaults().validate(); err != nil {
				t.Fatalf("config %+v rejected: %v", tc.cfg, err)
			}
		})
	}
}

// TestConfigValidateWithQuery pins the query-aware checks NewEngine layers
// on top of the plain config validation: combinations that are fine for a
// pattern query but unsound for an AGGREGATE one.
func TestConfigValidateWithQuery(t *testing.T) {
	agg := MustCompile(`
		AGGREGATE COUNT(*) OVER SEQ(A a, B b)
		WHERE a.id = b.id WITHIN 10`, nil)
	grouped := MustCompile(`
		AGGREGATE SUM(b.v) OVER SEQ(A a, B b)
		WHERE a.id = b.id WITHIN 10
		GROUP BY a.id`, nil)
	rejections := []struct {
		name string
		q    *Query
		cfg  Config
		want string
	}{
		{"adaptive aggregate", agg,
			Config{K: 10, Adaptive: Adaptive{Enabled: true}},
			"cannot be combined with AGGREGATE"},
		{"degradation-limits aggregate", agg,
			Config{K: 10, Adaptive: Adaptive{Limits: Limits{MaxBufferedEvents: 100}}},
			"cannot be combined with AGGREGATE"},
	}
	for _, tc := range rejections {
		t.Run(tc.name, func(t *testing.T) {
			en, err := NewEngine(tc.q, tc.cfg)
			if err == nil {
				t.Fatalf("engine %s constructed, want rejection containing %q", en.Strategy(), tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
	accepts := []struct {
		name string
		q    *Query
		cfg  Config
	}{
		{"plain aggregate", agg, Config{K: 10}},
		{"speculative aggregate", agg, Config{Strategy: StrategySpeculate, K: 10}},
		{"grouped aggregate", grouped, Config{K: 10}},
	}
	for _, tc := range accepts {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewEngine(tc.q, tc.cfg); err != nil {
				t.Fatalf("config %+v rejected for %q: %v", tc.cfg, tc.q.Source(), err)
			}
		})
	}
}
