package supervise

import (
	"math/rand"
	"testing"
	"time"
)

// TestBackoffDeterministicAndBounded: the retry schedule grows
// exponentially, respects the cap, and is reproducible for a fixed seed.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() []time.Duration {
		rng := rand.New(rand.NewSource(42))
		var ds []time.Duration
		for attempt := 0; attempt < 8; attempt++ {
			ds = append(ds, backoffDelay(100*time.Millisecond, time.Second, attempt, rng))
		}
		return ds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: schedule not deterministic (%v vs %v)", i, a[i], b[i])
		}
		if a[i] > time.Second+time.Second/2 {
			t.Fatalf("attempt %d: delay %v exceeds cap+jitter bound", i, a[i])
		}
		if a[i] < time.Millisecond {
			t.Fatalf("attempt %d: delay %v below the millisecond floor", i, a[i])
		}
	}
	if a[0] >= time.Second {
		t.Fatalf("first delay %v shows no exponential ramp", a[0])
	}
}
