package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"bomw/internal/core"
	"bomw/internal/server"
	"bomw/internal/tensor"
)

// maxVerifyMsgs bounds the verification failures one goroutine reports
// in detail; all of them are counted.
const maxVerifyMsgs = 5

// httpRunner is http-real: a closed loop over keep-alive connections to
// an in-process HTTP server in front of a one-node fleet.
type httpRunner struct {
	liveBase
	ts     *httptest.Server
	client *http.Client
	bodies [][]byte
	cases  []classifyCase
	want   [][]int // reference classes per case
	seqs   [][]int // per generator goroutine, indices into cases
	pos    []int

	tr      atomic.Pointer[tracer]
	reqID   atomic.Uint64
	handler []atomic.Int64 // ServeHTTP ns per traced request ID

	transport, batchWait []float64 // last window, traced
	bodyBytes            float64   // last window, mean per request sent
}

func prepareHTTP(f *fixture, seed int64) (runner, error) {
	r := &httpRunner{liveBase: liveBase{f: f}, cases: httpCases(seed)}
	pool := tensor.NewPool(0, 0)
	for _, c := range r.cases {
		body, err := json.Marshal(server.ClassifyRequest{Model: c.Model, Policy: c.Policy.String(), Samples: c.Samples,
			TimeoutMS: int(c.Deadline / time.Millisecond)})
		if err != nil {
			return nil, err
		}
		// The reference runs on the samples as the server decodes them.
		var req server.ClassifyRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		want, err := reference(f, req.Model, req.Samples, pool)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, body)
		r.want = append(r.want, want)
	}
	g := generators()
	for w := 0; w < g; w++ {
		r.seqs = append(r.seqs, schedule(seed, w, len(r.cases), 4096))
	}
	r.pos = make([]int, g)
	r.handler = make([]atomic.Int64, 1<<16)
	r.ts = httptest.NewServer(http.HandlerFunc(r.serve))
	r.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: g,
		MaxConnsPerHost:     g,
		DisableCompression:  true,
	}}
	return r, nil
}

// reference classifies samples with the model's own network, outside the
// serving path: the argmax of Network.Forward.
func reference(f *fixture, model string, rows [][]float32, pool *tensor.Pool) ([]int, error) {
	prog, err := f.sched.Runtime().Program(model)
	if err != nil {
		return nil, err
	}
	return tensor.Argmax(prog.Net.Forward(pool, inputTensor(model, rows))), nil
}

func (r *httpRunner) close() {
	r.client.CloseIdleConnections()
	r.ts.Close()
}

// serve mounts the program's server; in a traced window it records the
// ServeHTTP span under the request ID the client sent.
func (r *httpRunner) serve(w http.ResponseWriter, req *http.Request) {
	tr := r.tr.Load()
	if tr == nil {
		r.f.srv.ServeHTTP(w, req)
		return
	}
	start := time.Now()
	r.f.srv.ServeHTTP(w, req)
	end := time.Now()
	id, _ := strconv.ParseUint(req.Header.Get("X-Bench-Req"), 10, 64)
	parent, _ := strconv.ParseUint(req.Header.Get("X-Bench-Span"), 10, 64)
	tr.record("server.ServeHTTP", tr.id(), parent, id, start, end)
	if id < uint64(len(r.handler)) {
		r.handler[id].Store(int64(end.Sub(start)))
	}
}

// httpAcc is one generator goroutine's tally.
type httpAcc struct {
	out             outcomes
	tl              *timeline
	sim             simTally
	transport, wait *sampler
	inSLO           int64
	bodyBytes       float64
	recs            []batchRec
	bad             []string
}

func (r *httpRunner) window(d time.Duration, tr *tracer) (*window, error) {
	r.tr.Store(tr)
	defer r.tr.Store(nil)
	g := generators()
	accs := make([]*httpAcc, g)
	for i := range accs {
		accs[i] = &httpAcc{
			tl:        newTimeline(1<<14, int64(i)+1),
			transport: newSampler(1<<16, int64(i)+21), wait: newSampler(1<<16, int64(i)+31),
			recs: make([]batchRec, 0, maxRecs),
		}
	}
	url := r.ts.URL + "/v1/classify"
	mem0 := r.begin(tr)
	for _, a := range accs {
		a.tl.begin(time.Now(), d)
	}
	wall := closedLoop(g, d, func(w int, end time.Time) {
		a := accs[w]
		for time.Now().Before(end) {
			idx := r.seqs[w][r.pos[w]%len(r.seqs[w])]
			r.pos[w]++
			r.send(url, idx, tr, a)
		}
	})
	win := &window{wall: wall}
	for _, a := range accs {
		win.out.addAll(a.out)
	}
	r.end(tr, win, mem0)
	var tls []*timeline
	var sim []*simTally
	var transport, wait []*sampler
	var bodyBytes float64
	for _, a := range accs {
		win.inSLO += a.inSLO
		win.bad = append(win.bad, a.bad...)
		bodyBytes += a.bodyBytes
		tls, sim = append(tls, a.tl), append(sim, &a.sim)
		transport, wait = append(transport, a.transport), append(wait, a.wait)
		r.keep(a.recs)
	}
	win.parts = parts(tls...)
	win.addSim(sim)
	r.transport, r.batchWait = merged(transport...), merged(wait...)
	r.bodyBytes = ratio(bodyBytes, float64(win.out.Attempted))
	if n := win.out.Wrong; n > 0 {
		win.bad = append(win.bad, fmt.Sprintf("http-real: %d of %d responses disagree with the reference forward pass", n, win.out.Attempted))
	}
	return win, nil
}

// send makes one request and tallies its outcome.
func (r *httpRunner) send(url string, idx int, tr *tracer, a *httpAcc) {
	body := r.bodies[idx]
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL and method are fixed and valid
	}
	var rid, sid uint64
	if tr != nil {
		rid, sid = r.reqID.Add(1), tr.id()
		req.Header.Set("X-Bench-Req", strconv.FormatUint(rid, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatUint(sid, 10))
	}
	a.out.Attempted++
	a.bodyBytes += float64(len(body))
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		a.out.Failed++
		return
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		a.out.Failed++
		return
	}
	if tr != nil {
		tr.record("http.roundtrip", sid, 0, rid, t0, t1)
		if rid < uint64(len(r.handler)) {
			if h := r.handler[rid].Load(); h > 0 {
				a.transport.add(float64(t1.Sub(t0).Nanoseconds()-h) / 1e6)
			}
		}
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		a.out.Shed++
		return
	case http.StatusGatewayTimeout:
		var e struct{ Reason string }
		if json.Unmarshal(got, &e) == nil && e.Reason == "deadline_infeasible" {
			a.out.Rejected++
		} else {
			a.out.Expired++
		}
		return
	default:
		a.out.Failed++
		return
	}
	var cr server.ClassifyResponse
	if err := json.Unmarshal(got, &cr); err != nil {
		a.out.Failed++
		return
	}
	c := r.cases[idx]
	if !equalInts(cr.Classes, r.want[idx]) {
		a.out.Wrong++
		if len(a.bad) < maxVerifyMsgs {
			a.bad = append(a.bad, fmt.Sprintf("http-real: %s %d samples on %s: classes %v, reference %v",
				c.Model, len(c.Samples), cr.Device, cr.Classes, r.want[idx]))
		}
		return
	}
	a.out.OK++
	lat := t1.Sub(t0)
	a.tl.add(t0, float64(lat.Nanoseconds())/1e6)
	a.sim.add(r.f.service, cr.Model, cr.Device, len(c.Samples), cr.BatchSize, cr.EnergyJ)
	a.wait.add(float64(cr.WaitUS))
	if lat <= sloLimit {
		a.inSLO++
	}
	if len(a.recs) < cap(a.recs) {
		a.recs = append(a.recs, batchRec{Model: cr.Model, Batch: cr.BatchSize, Policy: policyOf(cr.Policy), Device: cr.Device})
	}
}

func (r *httpRunner) layers(w *window, tr *tracer, vals map[string]float64) {
	vals["server.handler_ms_p50"] = tr.p("server.ServeHTTP", 50, time.Millisecond)
	vals["server.handler_ms_p99"] = tr.p("server.ServeHTTP", 99, time.Millisecond)
	vals["server.transport_ms_p50"] = median(r.transport)
	vals["server.body_bytes_mean"] = r.bodyBytes
	vals["pipeline.batch_wait_us_p50"] = median(r.batchWait)
	var decode []float64
	for pass := 0; pass < 3; pass++ {
		for _, b := range r.bodies {
			var req server.ClassifyRequest
			t0 := time.Now()
			if err := json.Unmarshal(b, &req); err != nil {
				panic(err) // the bodies were encoded from the same type
			}
			decode = append(decode, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	vals["server.json_decode_ms_p50"] = median(decode)
	r.fleetLayers(w.out.Attempted, vals)
}

func policyOf(name string) core.Policy {
	for _, p := range policies {
		if p.String() == name {
			return p
		}
	}
	return core.BestThroughput
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
