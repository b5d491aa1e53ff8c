package dsidx

import (
	"context"
	"fmt"
	"sync"

	"dsidx/internal/messi"
)

// Serving and every Search* method share one request form: a plain MESSI
// index and a Sharded index answer a QueryRequest through the same mapping
// onto their one query entry, and Serve streams them through the same loop.

// QueryKind selects the search flavor of a QueryRequest.
type QueryKind int

const (
	// QueryNN is an exact 1-NN Euclidean search (the Search method).
	QueryNN QueryKind = iota
	// QueryKNN is an exact k-NN Euclidean search; set QueryRequest.K.
	QueryKNN
	// QueryDTW is an exact 1-NN DTW search; set QueryRequest.Window.
	QueryDTW
	// QueryApprox is the microsecond approximate search.
	QueryApprox
	// QueryWindowNN is an exact 1-NN search over the most recent LastN
	// landed series (the SearchWindow method); set QueryRequest.LastN.
	QueryWindowNN
)

// QueryRequest is one query submitted to Serve.
type QueryRequest struct {
	// ID is echoed in the response, matching answers to requests (responses
	// arrive in completion order, not submission order).
	ID int64
	// Query is the query series; its length must match the index.
	Query Series
	// Kind selects the search flavor (default QueryNN).
	Kind QueryKind
	// K is the neighbor count for QueryKNN (ignored otherwise).
	K int
	// Window is the Sakoe-Chiba half-width for QueryDTW (ignored otherwise).
	Window int
	// LastN is the window size for QueryWindowNN (ignored otherwise).
	LastN int
	// Tenant is the request's opaque tenant ID ("" means untenanted): its
	// admission queues on the tenant's fair share of the in-flight budget,
	// its execution on the tenant's slice of the worker pool, and the
	// dsidx_tenant_* metric families account it under this ID.
	Tenant string
}

// QueryResponse answers one QueryRequest.
type QueryResponse struct {
	// ID echoes the request's ID.
	ID int64
	// Matches holds the answer: one match for QueryNN/QueryDTW/QueryApprox,
	// up to K for QueryKNN.
	Matches []Match
	// Err reports a per-query failure (e.g. wrong query length).
	Err error
}

// Serve turns the index into a long-running query server: it answers
// requests from in until in closes or ctx is canceled, then closes the
// returned channel. Up to MaxInFlight requests are answered concurrently on
// the shared worker pool — on a Sharded index one admission slot covers one
// request's whole cross-shard scatter — so responses arrive in completion
// order: match them to requests by ID. Serve may be called multiple times;
// all serving loops share the same pool and admission budget.
//
// Every request Serve dequeues from in produces exactly one response —
// answered, or carrying Err when cancellation preempted it — so a caller
// that counts its accepted submissions can balance the books after a
// shutdown. The caller must drain the returned channel until it closes;
// its buffer only absorbs the responses in flight at cancellation, it is
// not a substitute for reading.
func (x *index) Serve(ctx context.Context, in <-chan QueryRequest) <-chan QueryResponse {
	consumers := x.b.MaxInFlight()
	// One buffer slot per consumer: a consumer holding a computed (or
	// error) response at cancellation time can always deposit it and
	// exit, even if the reader drains the channel only after the fact.
	out := make(chan QueryResponse, consumers)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-ctx.Done():
						return
					case req, ok := <-in:
						if !ok {
							return
						}
						// The request is dequeued: from here on it must be
						// answered unconditionally. Racing the sends below
						// against ctx.Done() would silently discard a
						// dequeued request about half the time when
						// cancellation and a ready reader are both
						// selectable.
						//
						// Cancellation-aware admission: a canceled server
						// must not wait behind other traffic for a slot, but
						// the preempted request still gets its response,
						// with Err set.
						release, err := x.b.AdmitTenantContext(ctx, req.Tenant)
						if err != nil {
							out <- QueryResponse{ID: req.ID, Err: err}
							return
						}
						resp := x.answer(req)
						release()
						out <- resp
					}
				}
			}()
		}
		wg.Wait()
	}()
	return out
}

// answer is Serve's response to one request. A QueryKNN request needs
// K > 0: SearchKNN treats k ≤ 0 as a no-op by contract, a request surfaces
// the malformed input instead of a silent empty answer. A failed response
// carries no matches, never a plausible-looking sentinel answer.
func (x *index) answer(req QueryRequest) QueryResponse {
	if req.Kind == QueryKNN && req.K <= 0 {
		return QueryResponse{ID: req.ID, Err: fmt.Errorf("dsidx: QueryKNN request %d needs K > 0, got %d", req.ID, req.K)}
	}
	ms, err := x.run(req, 0)
	if err != nil {
		return QueryResponse{ID: req.ID, Err: err}
	}
	return QueryResponse{ID: req.ID, Matches: ms}
}

// run answers one request through the backend's one query entry: the single
// QueryRequest → messi.Query mapping behind Serve and every Search* method.
// workers ≤ 0 takes a fair share of the pool.
func (x *index) run(req QueryRequest, workers int) ([]Match, error) {
	q := messi.Query{Series: req.Query, K: req.K, Warp: req.Window, Workers: workers,
		Scope: messi.Scope{AppendCut: -1, Tenant: req.Tenant}}
	switch req.Kind {
	case QueryNN:
		q.Kind = messi.NN
	case QueryKNN:
		q.Kind = messi.KNN
	case QueryDTW:
		q.Kind = messi.DTW
	case QueryApprox:
		q.Kind = messi.Approx
	case QueryWindowNN:
		if req.LastN <= 0 {
			return nil, fmt.Errorf("dsidx: window size %d, want > 0", req.LastN)
		}
		q.Kind, q.LastN = messi.NN, req.LastN
	default:
		// An unrecognized kind must not silently run some other search.
		return nil, fmt.Errorf("dsidx: request %d has unknown QueryKind %d", req.ID, req.Kind)
	}
	rs, _, err := x.b.Query(q)
	return matchesOf(rs), err
}
