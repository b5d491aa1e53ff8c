package engine

// Unit coverage for tenant-aware admission and fair-share accounting: the
// per-tenant gate in front of the untouched global semaphore, its equal
// split of MaxInFlight across live tenants, cancellation through the gate,
// stats snapshots, and the dsidx_tenant_* metric families.

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"dsidx/internal/metrics"
)

func TestAdmitTenantSequential(t *testing.T) {
	e := New(Options{Workers: 2, MaxInFlight: 4})
	defer e.Close()

	r1 := admit(e, "a")
	r2 := admit(e, "a")
	st := e.TenantStats()
	if len(st) != 1 || st[0].Tenant != "a" || st[0].InFlight != 2 {
		t.Fatalf("stats after two admissions: %+v", st)
	}
	r1()
	r2()
	r2() // release is idempotent
	st = e.TenantStats()
	if st[0].InFlight != 0 {
		t.Fatalf("in-flight after release: %+v", st)
	}

	// Tenant "" bypasses the gate entirely: no tenant entry appears.
	rel := admit(e, "")
	rel()
	if st := e.TenantStats(); len(st) != 1 {
		t.Fatalf("untenanted admission created a tenant entry: %+v", st)
	}
}

func TestAdmitTenantContextCancel(t *testing.T) {
	e := New(Options{Workers: 1, MaxInFlight: 2})
	defer e.Close()

	// Fill the lone tenant's cap (its equal split of MaxInFlight = 2).
	r1, err := e.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}

	// A third admission blocks on the tenant gate until its context dies.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Admit(ctx, "a"); err == nil {
		t.Fatal("over-cap admission returned without error")
	}
	st := e.TenantStats()
	if len(st) != 1 || st[0].AdmitWaits == 0 {
		t.Fatalf("blocked admission not counted as a wait: %+v", st)
	}

	// An already-dead context fails fast.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := e.Admit(dead, "a"); err == nil {
		t.Fatal("admission under a canceled context returned without error")
	}

	// Releasing a slot unblocks the gate again.
	r1()
	r3, err := e.Admit(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	r3()
	r2()
	if st := e.TenantStats(); st[0].InFlight != 0 {
		t.Fatalf("in-flight after all releases: %+v", st)
	}
}

func TestAdmitTenantCapSplitsAcrossTenants(t *testing.T) {
	// With two live tenants, each tenant's gate caps at MaxInFlight/2 —
	// tenant b can still admit while tenant a sits at its full split.
	e := New(Options{Workers: 1, MaxInFlight: 4})
	defer e.Close()

	var relA []func()
	// b registers first so a's cap is already the two-tenant split.
	relB, err := e.Admit(context.Background(), "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := e.Admit(context.Background(), "a")
		if err != nil {
			t.Fatalf("admission %d for tenant a: %v", i, err)
		}
		relA = append(relA, r)
	}
	// a is at its split (4/2 = 2): one more must block.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Admit(ctx, "a"); err == nil {
		t.Fatal("tenant a exceeded its split")
	}
	// b still has room in its own split and in the global window.
	relB2, err := e.Admit(context.Background(), "b")
	if err != nil {
		t.Fatalf("tenant b blocked by tenant a's storm: %v", err)
	}
	relB2()
	relB()
	for _, r := range relA {
		r()
	}
}

func TestAdmitTenantConcurrentStorm(t *testing.T) {
	// Two tenants hammer a tiny admission window concurrently; everything
	// must drain without deadlock and the books must balance to zero.
	e := New(Options{Workers: 2, MaxInFlight: 2})
	defer e.Close()
	var wg sync.WaitGroup
	for _, tenant := range []string{"a", "b"} {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					rel := admit(e, tenant)
					end := beginQuery(e, tenant)
					end()
					rel()
				}
			}(tenant)
		}
	}
	wg.Wait()
	for _, st := range e.TenantStats() {
		if st.InFlight != 0 || st.ActiveQueries != 0 {
			t.Fatalf("unbalanced books after storm: %+v", st)
		}
		if st.Queries != 60 {
			t.Fatalf("tenant %s counted %d queries, want 60", st.Tenant, st.Queries)
		}
	}
}

func TestFairShareTenant(t *testing.T) {
	e := New(Options{Workers: 8, MaxInFlight: 16})
	defer e.Close()

	// Untenanted and lone-tenant callers get the global fair share.
	if got := e.FairShare(""); got != 8 {
		t.Fatalf("idle untenanted share %d, want the whole pool 8", got)
	}
	endA := e.BeginSubQuery("a")
	if got, want := e.FairShare("a"), e.FairShare(""); got != want {
		t.Fatalf("lone tenant share %d, global %d", got, want)
	}

	// A second live tenant halves the slice; a second active branch of the
	// same tenant halves it again. Never above global, never below 1.
	endB := e.BeginSubQuery("b")
	if got := e.FairShare("a"); got != 4 {
		t.Fatalf("two-tenant share %d, want 4", got)
	}
	endA2 := e.BeginSubQuery("a")
	if got := e.FairShare("a"); got != 2 {
		t.Fatalf("two-branch share %d, want 2", got)
	}
	if got := e.FairShare("zzz-idle"); got < 1 {
		t.Fatalf("idle tenant share %d, want >= 1", got)
	}
	endA()
	endA2()
	endB()
	// All branches done: back to the global share.
	if got, want := e.FairShare("a"), e.FairShare(""); got != want {
		t.Fatalf("post-drain share %d, global %d", got, want)
	}
}

// TestUntenantedNeverLocksTenantState: tenant "" takes the global paths
// alone, so every entry completes while the tenant state's lock is held.
func TestUntenantedNeverLocksTenantState(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	e.tmu.Lock()
	defer e.tmu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		release, err := e.Admit(context.Background(), "")
		if err != nil {
			t.Error(err)
			return
		}
		e.CountQuery("")
		end := e.BeginSubQuery("")
		if got := e.FairShare(""); got != 4 {
			t.Errorf("lone untenanted share %d, want the whole pool 4", got)
		}
		end()
		release()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an untenanted call waited on the tenant lock")
	}
}

func TestTenantStatsSortedAndCounted(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	e.CountQuery("b")
	e.CountQuery("a")
	e.CountQuery("a")
	e.CountQuery("") // global only, no tenant entry
	st := e.TenantStats()
	if len(st) != 2 || st[0].Tenant != "a" || st[1].Tenant != "b" {
		t.Fatalf("stats not sorted by tenant: %+v", st)
	}
	if st[0].Queries != 2 || st[1].Queries != 1 {
		t.Fatalf("query counts: %+v", st)
	}
}

func TestTenantMetricsExposition(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	r := metrics.NewRegistry()
	e.RegisterMetrics(r)

	e.CountQuery("beta")
	e.CountQuery("alpha")
	rel := admit(e, "alpha")
	defer rel()

	text := r.Text()
	for _, want := range []string{
		`dsidx_tenant_queries_total{tenant="alpha"} 1`,
		`dsidx_tenant_queries_total{tenant="beta"} 1`,
		`dsidx_tenant_in_flight{tenant="alpha"} 1`,
		`dsidx_tenant_in_flight{tenant="beta"} 0`,
		`dsidx_tenant_active_queries{tenant="alpha"} 0`,
		`dsidx_tenant_admit_waits_total{tenant="alpha"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	// Labels sort deterministically: alpha before beta.
	if strings.Index(text, `tenant="alpha"`) > strings.Index(text, `tenant="beta"`) {
		t.Error("tenant samples not sorted by label")
	}
}
