package fleetd

import (
	"sync"
	"sync/atomic"
	"time"

	"deep/internal/obs"
)

// tenantGate is one tenant's admission state: a token bucket for sustained
// rate and an in-flight count for concurrency. The bucket is lazy — tokens
// accrue on read from the elapsed time, so an idle tenant costs nothing.
type tenantGate struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time

	inFlight atomic.Int64
}

// takeTokens consumes n tokens if available; otherwise it reports how long
// until the bucket refills that many, which the handler surfaces as
// Retry-After. A batch larger than the burst can never pass — the hint then
// names the (unreachable) refill time and the caller keeps getting 429s,
// which is the intended answer to "my batch exceeds my burst allowance".
func (g *tenantGate) takeTokens(now time.Time, rate, burst, n float64) (bool, time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.last.IsZero() {
		g.tokens = burst
	} else if dt := now.Sub(g.last).Seconds(); dt > 0 {
		g.tokens += dt * rate
		if g.tokens > burst {
			g.tokens = burst
		}
	}
	g.last = now
	if g.tokens >= n {
		g.tokens -= n
		return true, 0
	}
	return false, time.Duration((n - g.tokens) / rate * float64(time.Second))
}

// limiter applies per-tenant token-bucket rate limits and in-flight
// concurrency quotas. Zero rate disables rate limiting; zero maxInFlight
// disables the quota.
type limiter struct {
	rate        float64
	burst       float64
	maxInFlight int64

	mu       sync.Mutex
	gates    map[string]*tenantGate
	overflow tenantGate
}

func newLimiter(rate float64, burst int, maxInFlight int) *limiter {
	b := float64(burst)
	if b < 1 {
		b = rate
		if b < 1 {
			b = 1
		}
	}
	return &limiter{
		rate:        rate,
		burst:       b,
		maxInFlight: int64(maxInFlight),
		gates:       make(map[string]*tenantGate),
	}
}

// gate returns the tenant's admission gate, interning up to obs.TenantCap;
// past the cap, new tenant names share one overflow gate, so a client
// churning through tenant names only throttles itself harder.
func (l *limiter) gate(tenant string) *tenantGate {
	l.mu.Lock()
	defer l.mu.Unlock()
	g, ok := l.gates[tenant]
	if !ok {
		if len(l.gates) >= obs.TenantCap {
			return &l.overflow
		}
		g = &tenantGate{}
		l.gates[tenant] = g
	}
	return g
}

// admit runs both checks for one request. On success it returns a release
// function the handler must call when the request finishes; on failure it
// returns the rejection code and a Retry-After hint.
//
// The in-flight quota is checked before the token bucket: a tenant pinned at
// its concurrency quota must not also burn bucket tokens on every 429, which
// would push recovery out past the Retry-After hint. A rate rejection, in
// turn, returns the in-flight slot it optimistically took, so a rejected
// request of either kind consumes nothing.
func (l *limiter) admit(tenant string, now time.Time, quotaRetry time.Duration) (release func(), code string, retry time.Duration) {
	return l.admitN(tenant, now, 1, quotaRetry)
}

// admitN is admit for a batch of n requests: n in-flight slots and n bucket
// tokens, taken atomically per check — a batch either fully clears a gate or
// leaves it untouched, so a rejected batch consumes nothing.
func (l *limiter) admitN(tenant string, now time.Time, n int, quotaRetry time.Duration) (release func(), code string, retry time.Duration) {
	g := l.gate(tenant)
	nn := int64(n)
	release = func() {}
	if l.maxInFlight > 0 {
		if g.inFlight.Add(nn) > l.maxInFlight {
			g.inFlight.Add(-nn)
			return nil, codeQuotaExceeded, quotaRetry
		}
		release = func() { g.inFlight.Add(-nn) }
	}
	if l.rate > 0 {
		if ok, wait := g.takeTokens(now, l.rate, l.burst, float64(n)); !ok {
			release()
			return nil, codeRateLimited, wait
		}
	}
	return release, "", 0
}
