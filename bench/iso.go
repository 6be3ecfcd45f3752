package main

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rescache"
	"repro/internal/scratch"
	"repro/internal/wire"
)

// isoResult is what the isolated phases measure: the wire codec's four
// functions and the result cache's three outcomes, each timed alone on
// one goroutine over the first requests of the workload's own
// sequence, in nanoseconds per call.
type isoResult struct {
	encodeReq, decodeReq, encodeResp, decodeResp float64
	reqBytes, respBytes                          float64
	lookupHit, lookupMiss, insert                float64
}

// isoRounds is how often each isolated phase repeats over its
// requests; the first round warms buffers and is not counted.
const isoRounds = 9

// isoReq is one request of the isolated phases with every buffer it
// needs at each stage of a round trip.
type isoReq struct {
	e        *entry
	tenant   string
	in       kernel.Args // as the client sends it
	frame    []byte      // encoded request, length prefix included
	body     []byte      // 8-aligned copy of the frame body, as a connection slab holds it
	served   kernel.Args // decoded in place from body, then run
	resp     []byte      // encoded response
	received kernel.Args // the client's record after decoding resp
}

func isolate(p *plan) (isoResult, error) {
	var res isoResult
	count := min(max((8<<20)/(8*p.maxXs), 8), 256)
	reqs := make([]isoReq, count)
	for i := range reqs {
		r := &reqs[i]
		var rot int
		r.e, rot, r.tenant, _ = p.request(uint64(i))
		fill(&r.in, r.e, rot, make([]int64, p.maxXs), make([]int64, p.maxDst), make([]int, p.maxHist))
		r.received = r.in
		r.received.Xs = make([]int64, len(r.in.Xs))
	}
	// timed runs fn over every request isoRounds times and returns the
	// mean nanoseconds per call of the counted rounds.
	timed := func(fn func(r *isoReq) error) (float64, error) {
		var total int64
		for round := range isoRounds {
			start := nowNs()
			for i := range reqs {
				if err := fn(&reqs[i]); err != nil {
					return 0, err
				}
			}
			if round > 0 {
				total += nowNs() - start
			}
		}
		return float64(total) / float64((isoRounds-1)*len(reqs)), nil
	}

	var err error
	if res.encodeReq, err = timed(func(r *isoReq) error {
		r.frame, err = wire.AppendRequest(r.frame[:0], 1, r.tenant, r.e.k, &r.in, nil, p.w.budget)
		return err
	}); err != nil {
		return res, fmt.Errorf("iso encode request: %w", err)
	}
	dec := wire.NewDecoder()
	for i := range reqs {
		r := &reqs[i]
		r.body = append([]byte(nil), r.frame[4:]...)
		res.reqBytes += float64(len(r.frame)) / float64(len(reqs))
	}
	if res.decodeReq, err = timed(func(r *isoReq) error {
		req, err := dec.DecodeRequest(r.body)
		r.served = req.Args
		return err
	}); err != nil {
		return res, fmt.Errorf("iso decode request: %w", err)
	}
	for i := range reqs {
		reqs[i].e.k.Serial(&reqs[i].served)
	}
	res.encodeResp, _ = timed(func(r *isoReq) error {
		r.resp = wire.AppendResponse(r.resp[:0], 1, r.e.k, &r.served)
		return nil
	})
	for i := range reqs {
		res.respBytes += float64(len(reqs[i].resp)) / float64(len(reqs))
	}
	if res.decodeResp, err = timed(func(r *isoReq) error {
		_, err := wire.DecodeResponseInto(r.resp[4:], &r.received)
		return err
	}); err != nil {
		return res, fmt.Errorf("iso decode response: %w", err)
	}

	// The cache phases run miss, insert, hit per round on a cache of
	// their own, emptied between rounds by bumping every tenant.
	cache := rescache.New(rescache.Config{Pool: scratch.New()})
	toks := make([]rescache.Token, len(reqs))
	var miss, insert, hit int64
	cached := 0
	for round := range isoRounds {
		for _, tn := range tenants {
			cache.Bump(tn)
		}
		t0 := nowNs()
		for i := range reqs {
			toks[i], _ = cache.Lookup(reqs[i].tenant, reqs[i].e.k, &reqs[i].in)
		}
		t1 := nowNs()
		for i := range reqs {
			cache.Insert(reqs[i].tenant, reqs[i].e.k, toks[i], &reqs[i].served)
		}
		t2 := nowNs()
		hits := 0
		for i := range reqs {
			if _, ok := cache.Lookup(reqs[i].tenant, reqs[i].e.k, &reqs[i].in); ok {
				hits++
			}
		}
		t3 := nowNs()
		if round > 0 {
			miss, insert, hit = miss+t1-t0, insert+t2-t1, hit+t3-t2
			cached += hits
		}
	}
	// Uncacheable requests (histogram) return at once from all three
	// calls; per-call means are over the cacheable ones.
	if cached > 0 {
		res.lookupMiss = float64(miss) / float64(cached)
		res.insert = float64(insert) / float64(cached)
		res.lookupHit = float64(hit) / float64(cached)
	}
	return res, nil
}
