package solver

import "testing"

// TestConfigKeyGolden pins the literal Key() strings of default
// configs. The durable verdict store and the service LRU persist and
// compare these strings, so any change to a default config's key
// silently orphans every stored verdict: a new knob must key
// byte-identically at its default, as Task does for decide.
func TestConfigKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero", Config{}, "1|4000000|4|0|unit||0|0|0|0|false|[]"},
		{"seed", Config{Seed: 7}, "7|4000000|4|0|unit||0|0|0|0|false|[]"},
		{"count", Config{Seed: 7, Task: TaskCount}, "7|4000000|4|0|unit||0|0|0|0|false|[]|count"},
	} {
		if got := tc.cfg.Key(); got != tc.want {
			t.Errorf("%s: Key() = %q, want %q", tc.name, got, tc.want)
		}
	}
}
