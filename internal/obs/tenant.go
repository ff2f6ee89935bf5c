package obs

import (
	"sync"
	"sync/atomic"
)

// TenantCap bounds every per-tenant table a serving process keeps: labeled
// instrument sets (TenantSet) and admission gates alike. Past it, unseen
// tenants share one overflow entry, so a client churning through unbounded
// tenant names cannot grow memory — or a Registry, which interns instrument
// names forever — without bound.
const TenantCap = 1024

// TenantSet interns one value per tenant name — typically a tenant's resolved
// instrument handles, so the per-request record path does no label
// concatenation or registry lookups after first sight of the tenant. It
// holds at most TenantCap tenants; past the cap, unseen tenants get the
// shared overflow value, built once for tenant "other" at construction.
type TenantSet[V any] struct {
	build    func(tenant string) V
	overflow V
	m        sync.Map
	n        atomic.Int64
}

// NewTenantSet returns a set that builds each tenant's value with build.
func NewTenantSet[V any](build func(tenant string) V) *TenantSet[V] {
	return &TenantSet[V]{build: build, overflow: build("other")}
}

// Get returns the tenant's value, building it on first sight. The cap check
// precedes build: build usually interns registry names, which are never
// evicted, so a tenant past the cap must not mint new ones.
func (s *TenantSet[V]) Get(tenant string) V {
	if v, ok := s.m.Load(tenant); ok {
		return v.(V)
	}
	if s.n.Load() >= TenantCap {
		return s.overflow
	}
	v, loaded := s.m.LoadOrStore(tenant, s.build(tenant))
	if !loaded {
		s.n.Add(1)
	}
	return v.(V)
}

// Overflow returns the value shared by every tenant past the cap.
func (s *TenantSet[V]) Overflow() V { return s.overflow }
