package engine

// Tenant-aware fairness: every admission and scheduling entry (Admit,
// CountQuery, BeginSubQuery, FairShare) takes an opaque tenant ID. The
// design keeps the global machinery untouched and layers a per-tenant gate
// in front of it:
//
//   - A tenanted Admit first takes a tenant slot — each tenant with live
//     work is entitled to MaxInFlight / liveTenants slots (at least one) —
//     and only then the global semaphore. A storm from one tenant queues on
//     its own gate while other tenants sail through theirs, so the global
//     window is shared instead of captured. Caps shrink and grow as tenants
//     arrive and drain; a shrunken cap never evicts admitted queries, it
//     just holds newcomers until the tenant drains below it.
//   - A tenanted FairShare divides the pool first across tenants with
//     active queries, then across the tenant's own, and never exceeds the
//     global share — with a single tenant (or none) it degenerates to
//     exactly the untenanted formula.
//
// Tenant "" is the untenanted default and never reaches this file: those
// calls take the global paths alone and never lock tmu, so single-tenant
// deployments see zero overhead and identical scheduling.
//
// State for a tenant is retained after its work drains (the counters feed
// the dsidx_tenant_* metric families); the map is bounded by the number of
// distinct tenant IDs the caller uses.

import (
	"context"
	"sort"
	"sync"
)

// tenantState is one tenant's accounting. Mutable fields are guarded by
// Engine.tmu.
type tenantState struct {
	// refs counts live holders — waiting admissions, admitted queries,
	// active query branches. A tenant is "live" (counted by liveTenants,
	// entitled to an admission share) while refs > 0.
	refs int
	// inFlight is the tenant's currently admitted query count; the
	// admission gate holds it at or under the tenant's cap.
	inFlight int
	// active is the tenant's executing query-branch count (the per-tenant
	// slice of Engine.active), dividing the tenant's pool share across its
	// own queries.
	active int
	// queries and waits are lifetime counters: logical queries counted and
	// admissions that had to block on the tenant gate.
	queries uint64
	waits   uint64
}

// tenant returns (creating if needed) the named tenant's state and adds one
// live reference. Caller holds tmu.
func (e *Engine) tenant(name string) *tenantState {
	ts := e.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		e.tenants[name] = ts
	}
	ts.refs++
	if ts.refs == 1 {
		e.liveTenants++
	}
	return ts
}

// tenantDone drops one live reference. Caller holds tmu. Waiters are woken
// when the live-tenant count drops — every remaining tenant's cap grew.
func (e *Engine) tenantDone(ts *tenantState) {
	ts.refs--
	if ts.refs == 0 {
		e.liveTenants--
		e.tcond.Broadcast()
	}
}

// tenantCap is the per-tenant admission bound: an equal split of the global
// window across tenants with live work, never below one. Caller holds tmu.
func (e *Engine) tenantCap() int {
	return max(1, e.opt.MaxInFlight/max(1, e.liveTenants))
}

// admitTenant is a tenanted Admit: the query first clears the tenant's own
// admission gate (its equal split of MaxInFlight), then the global one.
func (e *Engine) admitTenant(ctx context.Context, tenant string) (release func(), err error) {
	// The tenant gate waits on a condition variable, which cannot select on
	// ctx; a cancellation callback broadcasting the condition bounds every
	// waiter's wake-up latency to one Broadcast.
	stop := context.AfterFunc(ctx, func() {
		e.tmu.Lock()
		e.tcond.Broadcast()
		e.tmu.Unlock()
	})
	defer stop()
	e.tmu.Lock()
	ts := e.tenant(tenant)
	for waited := false; ts.inFlight >= e.tenantCap(); {
		if ctx.Err() != nil {
			e.tenantDone(ts)
			e.tmu.Unlock()
			return nil, ctx.Err()
		}
		if !waited {
			waited = true
			ts.waits++
		}
		e.tcond.Wait()
	}
	ts.inFlight++
	e.tmu.Unlock()
	globalRelease, err := e.admitGlobal(ctx)
	if err != nil {
		e.tmu.Lock()
		ts.inFlight--
		e.tenantDone(ts)
		e.tcond.Broadcast()
		e.tmu.Unlock()
		return nil, err
	}
	return e.tenantRelease(ts, globalRelease), nil
}

// tenantRelease wraps a global admission release with the tenant-side exit:
// global slot first, then the tenant slot, then a broadcast so gate waiters
// (of this tenant, or of others whose cap grew) re-check.
func (e *Engine) tenantRelease(ts *tenantState, globalRelease func()) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			globalRelease()
			e.tmu.Lock()
			ts.inFlight--
			e.tenantDone(ts)
			e.tcond.Broadcast()
			e.tmu.Unlock()
		})
	}
}

// countTenant records one logical query in the tenant's counter.
func (e *Engine) countTenant(tenant string) {
	e.tmu.Lock()
	ts := e.tenants[tenant]
	if ts == nil {
		ts = &tenantState{}
		e.tenants[tenant] = ts
	}
	ts.queries++
	e.tmu.Unlock()
}

// beginTenant is the tenant side of a tenanted BeginSubQuery, whose global
// active count has already moved: the tenant's own count moves too, so
// FairShare can split the pool first across tenants, then across the
// tenant's own branches. The returned end undoes both.
func (e *Engine) beginTenant(tenant string) (end func()) {
	e.tmu.Lock()
	ts := e.tenant(tenant)
	ts.active++
	e.tmu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			e.active.Add(-1)
			e.tmu.Lock()
			ts.active--
			e.tenantDone(ts)
			e.tmu.Unlock()
		})
	}
}

// tenantShare confines a tenanted query's global fair share to its
// tenant's slice: the pool divides first across tenants with active
// queries, then across this tenant's own active branches, and the result
// never exceeds global — so a lone tenant gets exactly the global share,
// while under multi-tenant contention each tenant's storm is confined to
// its slice.
func (e *Engine) tenantShare(tenant string, global int) int {
	e.tmu.Lock()
	nt := e.liveTenants
	own := 0
	if ts := e.tenants[tenant]; ts != nil {
		own = ts.active
	}
	e.tmu.Unlock()
	if nt <= 1 {
		return global
	}
	share := e.opt.Workers / max(1, nt) / max(1, own)
	return max(1, min(share, global))
}

// TenantStat is one tenant's public accounting snapshot.
type TenantStat struct {
	// Tenant is the opaque ID the caller supplied.
	Tenant string
	// InFlight and ActiveQueries are the tenant's current admitted and
	// executing-branch counts.
	InFlight      int
	ActiveQueries int
	// Queries counts the tenant's lifetime logical queries; AdmitWaits its
	// admissions that blocked on the tenant gate.
	Queries    uint64
	AdmitWaits uint64
}

// TenantStats snapshots every tenant ever seen, sorted by ID. Empty until
// the first tenanted call.
func (e *Engine) TenantStats() []TenantStat {
	e.tmu.Lock()
	out := make([]TenantStat, 0, len(e.tenants))
	for name, ts := range e.tenants {
		out = append(out, TenantStat{
			Tenant:        name,
			InFlight:      ts.inFlight,
			ActiveQueries: ts.active,
			Queries:       ts.queries,
			AdmitWaits:    ts.waits,
		})
	}
	e.tmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
