// Package supervise holds the two contracts every sharded run shares:
// the spool layout of per-shard partial-frontier files (ShardPath) and
// the per-shard retry schedule (Backoff) — bounded retries with
// exponential backoff and deterministic jitter. The shard coordinator
// itself is internal/fleet's Run, which executes shards in-process or
// dispatches them to workers over HTTP under this schedule and into this
// layout, so a spool left by either transport is resumed by the other.
//
// The same spirit as the restartable search harnesses around
// Timeloop-style mappers (Parashar et al., ISPASS 2019) and GAMMA-style
// genetic search (Kao & Krishna, ICCAD 2020): the evaluator inside is
// deterministic and oblivious, the harness around it owns failure.
package supervise

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"
)

// Defaults for the retry schedule; tests shorten them via NewBackoff's
// arguments.
const (
	DefaultMaxRetries  = 3
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Backoff is one shard's retry schedule: a retry budget beyond the first
// attempt, and exponential backoff between attempts with deterministic
// jitter.
type Backoff struct {
	// Retries is the retry budget beyond the first attempt.
	Retries int

	base, max time.Duration
	rng       *rand.Rand
}

// NewBackoff resolves shard k's schedule from a coordinator's retry
// options: maxRetries 0 means DefaultMaxRetries and negative means no
// retries; non-positive base and max pick DefaultBaseBackoff and
// DefaultMaxBackoff; seed 0 means 1. Each shard draws from its own
// jitter stream, so reruns with the same seed reproduce the same
// schedule and shards do not thundering-herd.
func NewBackoff(maxRetries int, base, max time.Duration, seed int64, k int) *Backoff {
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	if max < base {
		max = base
	}
	if seed == 0 {
		seed = 1
	}
	return &Backoff{Retries: maxRetries, base: base, max: max, rng: rand.New(rand.NewSource(seed + int64(k)))}
}

// Delay is the wait after the given failed attempt (0-based): about
// base·2^attempt, capped at max, with ±50% jitter.
func (b *Backoff) Delay(attempt int) time.Duration {
	return backoffDelay(b.base, b.max, attempt, b.rng)
}

// ShardPath names shard k (0-based) of n's partial-frontier file inside
// dir — the spool layout the coordinator, the serve worker, and a human
// resuming by hand all use.
func ShardPath(dir string, k, n int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k+1, n))
}

// backoffDelay computes attempt k's wait: base·2^k capped at max, with
// ±50% jitter drawn from the shard's deterministic stream.
func backoffDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter uniformly in [d/2, 3d/2), never below a millisecond floor
	// so tests with nanosecond bases still sleep a bounded, nonzero time.
	j := d/2 + time.Duration(rng.Int63n(int64(d)+1))
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}
