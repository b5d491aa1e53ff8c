// Package engine provides the shared worker pool that turns the single-query
// parallelism of MESSI (paper §III) into a multi-query serving engine.
//
// The paper's design gives every query all the cores: each Search call
// spawns one goroutine per worker for the tree-traversal phase and again for
// the queue-draining phase. That is the right shape for one query at a time,
// but a serving system has many queries in flight, and per-call goroutine
// fan-out makes them fight the scheduler instead of sharing it. ParIS+
// (Peng et al.) already time-shares one worker pool across pipeline stages;
// this package extends the idea across queries: a persistent, index-owned
// pool executes leaf-refinement and traversal tasks from *all* in-flight
// queries, interleaved through one FIFO run queue, so the hardware runs at
// most Workers tasks at any instant no matter how many queries are active.
//
// The three pieces:
//
//   - Engine: the pool itself. Fixed worker goroutines pull closures from a
//     bounded channel. Submission after Close degrades to inline execution,
//     so a closed engine is still correct, just serial.
//   - Group: a per-phase barrier. A query submits its phase's tasks to a
//     Group and Waits; only its own tasks gate the barrier, while the pool
//     freely interleaves other queries' work.
//   - Admission: a counting semaphore bounding the number of simultaneously
//     admitted queries, so a burst cannot oversubscribe memory (each
//     admitted query pins scratch buffers) or grow the run queue without
//     bound.
//
// One pool can serve several indexes: a sharding layer creates the Engine,
// hands it to each of its N indexes to borrow, and closes it once when it
// closes itself, so total parallelism is governed globally — N shards of one
// query, or tasks of N unrelated queries, all share the same Workers
// execution slots and the same admission budget, and FairShare splits the
// pool over every query active on any attached index.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of pool goroutines. 0 means GOMAXPROCS.
	Workers int
	// MaxInFlight bounds the number of concurrently admitted queries.
	// 0 means 2×Workers — enough to keep the pool saturated while one
	// query is in a serial section, without unbounded scratch pinning.
	MaxInFlight int
}

// queuePerWorker sizes the task channel: 64 slots per pool goroutine.
// Submit blocks (backpressure on the query goroutine) when it is full.
const queuePerWorker = 64

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 2 * o.Workers
	}
	return o
}

// Stats is a snapshot of the engine's throughput counters. Snapshots
// taken while writers run are internally consistent: every monotonic
// counter is non-decreasing across successive snapshots, and
// PeakInFlight >= InFlight always holds (Stats clamps the published
// peak against the in-flight count it just read, closing the window
// between a query bumping inFlight and raising the peak).
type Stats struct {
	Workers         int    // pool size
	PendingTasks    int    // tasks queued but not yet claimed by a worker
	InFlight        int    // queries currently admitted via Admit
	PeakInFlight    int    // high-water mark of InFlight
	Queries         uint64 // queries executed since creation, any entry path
	Tasks           uint64 // tasks pool workers have taken since creation, counted as each starts
	AdmitWaits      uint64 // admissions that blocked on a full semaphore
	AdmitWaitNanos  uint64 // total nanoseconds spent blocked in admission
	SubmitFallbacks uint64 // always 0: no task is optional; kept while EngineStats and bench/ read it
	TaskPanics      uint64 // pool tasks that panicked and were contained
	BgPanics        uint64 // background jobs (Go) that panicked and were contained
}

// Engine is a persistent worker pool shared by every query on one index.
type Engine struct {
	opt   Options
	tasks chan func()
	quit  chan struct{}
	wg    sync.WaitGroup

	// mu serializes Submit's closed-check-then-send against Close, so no
	// task can be enqueued after the workers have drained and exited.
	// closing flips first and gates new background jobs; closed flips after
	// the background jobs drain and gates task submission.
	mu      sync.RWMutex
	closing bool
	closed  bool
	once    sync.Once
	bg      sync.WaitGroup

	sem       chan struct{}
	inFlight  atomic.Int64
	peak      atomic.Int64
	queries   atomic.Uint64
	tasksDone atomic.Uint64
	active    atomic.Int64

	// Saturation counters: how often admission had to block, and for how
	// long — the pool's overload signal.
	admitWaits  atomic.Uint64
	admitWaitNs atomic.Uint64

	// Containment counters: panics recovered at the pool-task and
	// background-job boundaries instead of crashing the process.
	taskPanics atomic.Uint64
	bgPanics   atomic.Uint64

	// Tenant-fairness state (tenant.go): per-tenant accounting plus the
	// condition variable gating tenant admission. Untenanted traffic
	// (tenant "") never touches any of it.
	tmu         sync.Mutex
	tcond       *sync.Cond
	tenants     map[string]*tenantState
	liveTenants int
}

// New starts an engine with opt.Workers pool goroutines. The pool is idle
// (parked on a channel receive) until tasks arrive.
func New(opt Options) *Engine {
	opt = opt.normalize()
	e := &Engine{
		opt:     opt,
		tasks:   make(chan func(), queuePerWorker*opt.Workers),
		quit:    make(chan struct{}),
		sem:     make(chan struct{}, opt.MaxInFlight),
		tenants: make(map[string]*tenantState),
	}
	e.tcond = sync.NewCond(&e.tmu)
	for w := 0; w < opt.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case fn := <-e.tasks:
			e.runTask(fn)
		case <-e.quit:
			// Drain everything already enqueued so no Group waits forever,
			// then exit.
			for {
				select {
				case fn := <-e.tasks:
					e.runTask(fn)
				default:
					return
				}
			}
		}
	}
}

// runTask counts and executes one pool task, with last-resort panic
// containment: a worker goroutine has no caller to recover for it, so an
// escaped panic here would kill the process and strand every Group waiting
// on the pool. Group tasks contain their own panics (recording them for
// Group.Err) before this fires; this boundary covers raw submissions and is
// counted separately so an escape is visible in Stats. The task is counted
// before it runs because a Group task releases its barrier from inside fn:
// counted after, a Stats read right after Wait could miss it.
func (e *Engine) runTask(fn func()) {
	e.tasksDone.Add(1)
	defer func() {
		if r := recover(); r != nil {
			e.taskPanics.Add(1)
		}
	}()
	fn()
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.opt.Workers }

// MaxInFlight returns the admission bound.
func (e *Engine) MaxInFlight() int { return e.opt.MaxInFlight }

// Close stops the pool. In-flight background jobs (Go) are waited for with
// the pool still live, so a running merge finishes in parallel; then pending
// tasks are drained and the workers retire. Tasks submitted after Close run
// inline on the submitting goroutine. Close is idempotent and safe to call
// concurrently with running queries.
func (e *Engine) Close() {
	e.once.Do(func() {
		e.mu.Lock()
		e.closing = true
		e.mu.Unlock()
		e.bg.Wait()
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		close(e.quit)
		e.wg.Wait()
	})
}

// Closing reports whether Close has begun. Long-running background jobs
// poll it between work items and exit early, so a job that could otherwise
// run forever (e.g. a merge loop racing a sustained append stream) cannot
// deadlock Close's wait.
func (e *Engine) Closing() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.closing
}

// Go runs fn on a tracked background goroutine — the scheduling entry point
// for maintenance jobs like delta merges, which coordinate from their own
// goroutine (exactly as query coordinators run on caller goroutines) while
// their parallel phases Submit tasks to the pool. Close waits for every
// tracked job before retiring the workers, so a job observes a live pool
// for its whole run. Returns false, without running fn, once Close has
// begun: shutdown must not race with new maintenance work.
//
// A panic in fn is contained — counted in Stats.BgPanics, never crashing
// the process: a failed merge leaves the index serving its previous
// snapshot, which is strictly better than taking down every in-flight
// query with it.
func (e *Engine) Go(fn func()) bool {
	e.mu.RLock()
	if e.closing {
		e.mu.RUnlock()
		return false
	}
	e.bg.Add(1)
	e.mu.RUnlock()
	go func() {
		defer e.bg.Done()
		defer func() {
			if r := recover(); r != nil {
				e.bgPanics.Add(1)
			}
		}()
		fn()
	}()
	return true
}

// submit enqueues fn for pool execution, or runs it inline if the engine is
// closed. The RLock pins the open state across the send: Close cannot take
// the write lock (and so cannot retire the workers) until every in-progress
// send has landed in the channel, where the drain loop still sees it.
func (e *Engine) submit(fn func()) {
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		fn()
		return
	}
	e.tasks <- fn
	e.mu.RUnlock()
}

// Admit blocks until a query slot is free and returns its release
// function. Admission bounds scratch-buffer pinning and run-queue growth; it
// is used by the batch and serve layers, while direct Search calls manage
// their own concurrency. A tenanted query first clears its tenant's own gate
// (tenant.go), then the global one; tenant "" takes the global gate alone
// and never touches the tenant state. If ctx is done before the gates clear,
// release is nil and err is ctx.Err(), so serving loops waiting behind a
// long batch unblock promptly on shutdown.
func (e *Engine) Admit(ctx context.Context, tenant string) (release func(), err error) {
	if tenant != "" {
		return e.admitTenant(ctx, tenant)
	}
	return e.admitGlobal(ctx)
}

// admitGlobal takes one slot of the global semaphore.
func (e *Engine) admitGlobal(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
		return e.admitted(), nil
	default:
	}
	t0 := time.Now()
	select {
	case e.sem <- struct{}{}:
		e.admitWaits.Add(1)
		e.admitWaitNs.Add(uint64(time.Since(t0)))
		return e.admitted(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (e *Engine) admitted() (release func()) {
	n := e.inFlight.Add(1)
	for {
		p := e.peak.Load()
		if n <= p || e.peak.CompareAndSwap(p, n) {
			break
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			e.inFlight.Add(-1)
			<-e.sem
		})
	}
}

// CountQuery records one logical query in the Stats.Queries throughput
// counter, and in the tenant's when tenant is non-empty, without marking an
// active executor. Unlike Admit, this and BeginSubQuery are plain counters
// that every query path calls, so direct Search calls are seen too, not
// just admitted traffic. A sharding layer counts each scatter-gather query
// exactly once here, while its N per-shard sub-searches each call
// BeginSubQuery — so sampling Queries still yields logical QPS no matter
// the shard count.
func (e *Engine) CountQuery(tenant string) {
	e.queries.Add(1)
	if tenant != "" {
		e.countTenant(tenant)
	}
}

// BeginSubQuery marks one branch of a counted query as actively executing
// and returns the matching end function: FairShare splits the pool over the
// active branches, globally and within the tenant when tenant is non-empty.
func (e *Engine) BeginSubQuery(tenant string) (end func()) {
	e.active.Add(1)
	if tenant != "" {
		return e.beginTenant(tenant)
	}
	return func() { e.active.Add(-1) }
}

// ActiveQueries returns the number of queries currently executing.
func (e *Engine) ActiveQueries() int { return int(e.active.Load()) }

// FairShare returns the parallelism an unpinned query should fan out to:
// the whole pool when it is alone, a proportional slice when others are
// active. Space-sharing under load beats pure time-slicing because each
// query then submits fewer, larger tasks — less queue and barrier overhead
// per answer — while the pool stays fully busy as long as there is work. A
// tenanted query's share is further confined to its tenant's slice
// (tenantShare).
func (e *Engine) FairShare(tenant string) int {
	share := e.opt.Workers
	if n := e.ActiveQueries(); n > 1 {
		share = max(1, e.opt.Workers/n)
	}
	if tenant != "" {
		return e.tenantShare(tenant, share)
	}
	return share
}

// Stats snapshots the throughput counters.
func (e *Engine) Stats() Stats {
	// Load inFlight before peak: admitted() bumps inFlight first and
	// raises peak second, so a peak read after an inFlight read is >= any
	// concurrent raiser's target — except the raiser that has bumped but
	// not yet CASed, which the clamp below covers. The published snapshot
	// therefore always satisfies PeakInFlight >= InFlight.
	inFlight := int(e.inFlight.Load())
	peak := int(e.peak.Load())
	if inFlight > peak {
		peak = inFlight
	}
	return Stats{
		Workers:        e.opt.Workers,
		PendingTasks:   len(e.tasks),
		InFlight:       inFlight,
		PeakInFlight:   peak,
		Queries:        e.queries.Load(),
		Tasks:          e.tasksDone.Load(),
		AdmitWaits:     e.admitWaits.Load(),
		AdmitWaitNanos: e.admitWaitNs.Load(),
		TaskPanics:     e.taskPanics.Load(),
		BgPanics:       e.bgPanics.Load(),
	}
}

// Group is one query phase's barrier over the shared pool: Submit hands
// tasks to the pool, Wait blocks until exactly this group's tasks finish.
//
// A task that panics is contained at the group boundary: the barrier still
// releases (the wrapped task always completes), and the first contained
// panic is available from Err after Wait — the delivery path that turns a
// cold-device fault inside one leaf-refinement task into a typed per-query
// error instead of a process crash.
type Group struct {
	e  *Engine
	wg sync.WaitGroup

	errMu sync.Mutex
	err   error
}

// NewGroup returns an empty group bound to the engine.
func (e *Engine) NewGroup() *Group { return &Group{e: e} }

// run executes fn with the group's containment: a panic is recorded as the
// group's error (first one wins) and swallowed, so the barrier releases.
func (g *Group) run(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			g.errMu.Lock()
			if g.err == nil {
				g.err = Contain(r)
			}
			g.errMu.Unlock()
		}
	}()
	fn()
}

// Submit schedules fn on the pool (or inline after Close).
func (g *Group) Submit(fn func()) {
	g.wg.Add(1)
	g.e.submit(func() {
		defer g.wg.Done()
		g.run(fn)
	})
}

// Do runs fn on the calling goroutine as one of the group's tasks: a panic
// is contained and recorded for Err exactly as a submitted task's is. A
// caller that works beside the tasks it submitted therefore always reaches
// Wait, and never unwinds while they still run.
func (g *Group) Do(fn func()) { g.run(fn) }

// Wait blocks until every task submitted to this group has finished.
func (g *Group) Wait() { g.wg.Wait() }

// Err returns the first contained panic of the group's tasks as a
// *PanicError, or nil. Call it after Wait; a phase whose Err is non-nil
// produced an incomplete result and must not be published.
func (g *Group) Err() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}
