package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/virec/virec/internal/farm"
)

const (
	// farmClients is the number of closed-loop clients: each submits its
	// next job only once the previous one's result bytes are back.
	farmClients = 2
	// farmPoll is the clients' status poll interval. The 250 ms default
	// would time the poll timer instead of the farm.
	farmPoll = 2 * time.Millisecond
	// farmPassTimeout bounds one pass, so a wedged farm fails the run
	// instead of hanging it.
	farmPassTimeout = 5 * time.Minute
)

// farmLoad drives an in-process farm over HTTP: every pass opens a fresh
// farm in a new directory, submits distinct sim jobs (the write path:
// journal, execution, cache put), then resubmits the same specs (the read
// path: key hash, cache lookup).
type farmLoad struct {
	n, iters int
	seed     uint64
	out      string

	transport *countingTransport
	clients   []*farm.Client

	f     *farm.Farm
	srv   *http.Server
	serve chan error
	dir   string

	first           [][]byte // pass 0's result bytes, for the repeat check
	queueMS, execMS []float64
}

// countingTransport counts the HTTP requests the clients make.
type countingTransport struct {
	base *http.Transport
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.base.RoundTrip(req)
}

// simSpec is job j's spec: a short 4-thread ViReC gather at 80% context,
// small enough that the farm's own overhead shows.
func (w *farmLoad) simSpec(j int) *farm.Spec {
	return &farm.Spec{Kind: farm.KindSim, Sim: &farm.SimSpec{
		CoreKind: "virec", Threads: 4, Workload: "gather", Iters: w.iters,
		CtxPct: 80, Policy: "LRC", Seed: w.seed + uint64(j),
	}}
}

func (w *farmLoad) setup(r *runner) error {
	sz := r.opt.sizes()
	w.n, w.iters, w.seed, w.out = sz.farmJobs, sz.farmIters, r.opt.seed, r.opt.out
	w.transport = &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	hc := &http.Client{Transport: w.transport}
	for range farmClients {
		w.clients = append(w.clients, &farm.Client{HTTP: hc, PollInterval: farmPoll})
	}
	return w.open()
}

// open starts a fresh farm, as virec-farm ships it, behind an HTTP server
// on a loopback port, and warms it with one round trip of a job outside
// the pass's specs, so the first timed job does not pay for first use of
// the connection, the journal and the worker.
func (w *farmLoad) open() error {
	dir, err := os.MkdirTemp(w.out, "farm-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.f, err = farm.Open(farm.Options{Dir: dir, Workers: workers, SyncJournal: true})
	if err != nil {
		return err
	}
	w.f.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: farm.NewServer(w.f)}
	w.serve = make(chan error, 1)
	go func() { w.serve <- w.srv.Serve(ln) }()
	for _, c := range w.clients {
		c.Base = "http://" + ln.Addr().String()
	}
	ctx, cancel := context.WithTimeout(context.Background(), farmPassTimeout)
	defer cancel()
	job, err := w.clients[0].Submit(ctx, w.simSpec(w.n))
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	if _, _, err := w.clients[0].WaitResult(ctx, job.ID); err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	return nil
}

// shut stops the server and drains the farm, then deletes its directory.
func (w *farmLoad) shut() error {
	if w.f == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), farmPassTimeout)
	defer cancel()
	var errs []error
	if w.srv != nil {
		errs = append(errs, w.srv.Shutdown(ctx))
		if err := <-w.serve; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, w.f.Drain(ctx))
	w.transport.base.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(w.dir))
	w.f, w.srv = nil, nil
	return errors.Join(errs...)
}

func (w *farmLoad) close() error { return w.shut() }

// roundTrip is one submission's outcome.
type roundTrip struct {
	id       uint64
	ms       float64
	atSubmit bool // the job was already done when Submit returned
	out      []byte
	err      error
}

// closedLoop runs fn for every index across the clients, each client
// starting its next index only after the previous returned.
func (w *farmLoad) closedLoop(n int, fn func(c *farm.Client, j int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				fn(c, j)
			}
		}()
	}
	wg.Wait()
}

// submit sends spec and waits for its result bytes.
func submit(ctx context.Context, r *runner, c *farm.Client, parent int64, spec *farm.Spec, cached bool) roundTrip {
	submitName, waitName := "submit", "wait"
	if cached {
		submitName, waitName = "submit_cached", "wait_cached"
	}
	start := time.Now()
	_, end := r.tr.begin(submitName, parent)
	job, err := c.Submit(ctx, spec)
	end()
	if err != nil {
		return roundTrip{ms: ms(time.Since(start)), err: err}
	}
	rt := roundTrip{id: job.ID, atSubmit: job.State == farm.StateDone}
	_, end = r.tr.begin(waitName, parent)
	rt.out, _, rt.err = c.WaitResult(ctx, job.ID)
	end()
	rt.ms = ms(time.Since(start))
	return rt
}

func (w *farmLoad) pass(r *runner, i int) (passOut, error) {
	specs := make([]*farm.Spec, w.n)
	for j := range specs {
		specs[j] = w.simSpec(j)
	}
	return w.run(r, i, specs, specs)
}

// run times one pass: specs are submitted for execution, then resubs are
// submitted again and must all be served from the cache.
func (w *farmLoad) run(r *runner, i int, specs, resubs []*farm.Spec) (passOut, error) {
	po := newPassOut()
	if w.f == nil {
		if err := w.open(); err != nil {
			return po, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), farmPassTimeout)
	defer cancel()
	executed := make([]roundTrip, len(specs))
	cached := make([]roundTrip, len(resubs))
	var execWall float64
	var reqs int64
	r.timed(func(pass int64) {
		reqs0 := w.transport.n.Load()
		start := time.Now()
		w.closedLoop(len(specs), func(c *farm.Client, j int) {
			job, end := r.tr.begin("job", pass)
			executed[j] = submit(ctx, r, c, job, specs[j], false)
			end()
		})
		execWall = time.Since(start).Seconds()
		reqs = w.transport.n.Load() - reqs0
		w.closedLoop(len(resubs), func(c *farm.Client, j int) {
			job, end := r.tr.begin("resubmit", pass)
			cached[j] = submit(ctx, r, c, job, resubs[j], true)
			end()
		})
	})
	stats := w.f.StatsSnapshot()

	model := modelCounts{}
	var cycles, insts float64
	if i == 0 {
		w.first = make([][]byte, len(executed))
	}
	for j, rt := range executed {
		err := rt.err
		if err == nil {
			err = w.checkExecuted(ctx, r, i, j, specs[j], rt)
		}
		if err == nil {
			var res farm.SimResult
			if err = json.Unmarshal(rt.out, &res); err == nil {
				cycles += float64(res.Cycles)
				insts += float64(res.Insts)
				model.add(res.Metrics)
			}
		}
		if err != nil {
			err = fmt.Errorf("farm job %d: %w", j, err)
		}
		r.op(err)
		po.Lat["roundtrip"] = append(po.Lat["roundtrip"], rt.ms)
	}
	for j, rt := range cached {
		r.op(checkCached(j, rt, executed[j]))
		po.Lat["cachehit"] = append(po.Lat["cachehit"], rt.ms)
	}
	if r.tr != nil {
		w.jobEvents(ctx, executed)
	}
	if err := w.shut(); err != nil {
		return po, err
	}

	rtt, hit := po.Lat["roundtrip"], po.Lat["cachehit"]
	po.Values["roundtrip_ms_p50"] = median(rtt)
	po.Values["roundtrip_ms_p95"] = percentile(rtt, 95)
	po.Values["cachehit_ms_p50"] = median(hit)
	po.Values["cachehit_ms_p95"] = percentile(hit, 95)
	po.Values["jobs_per_s"] = float64(len(specs)) / execWall
	po.Counters["farm.cache_hits"] = float64(stats.CacheHits)
	po.Counters["farm.http_reqs_per_job"] = float64(reqs) / float64(len(specs))
	po.Counters["sim.cycles"] = cycles
	po.Counters["sim.insts"] = insts
	model.into(po.Counters)
	return po, nil
}

// checkExecuted holds an executed job to the farm's determinism contract:
// it ran (it was not already done at submission), every tenth result
// equals an inline farm.Execute of the same spec, and every pass returns
// the bytes pass 0 did.
func (w *farmLoad) checkExecuted(ctx context.Context, r *runner, i, j int, spec *farm.Spec, rt roundTrip) error {
	if rt.atSubmit {
		return fmt.Errorf("job %d was already done at submission in a fresh farm", rt.id)
	}
	if j%10 == 0 {
		_, end := r.tr.begin("inline_exec", 0)
		want, err := farm.Execute(ctx, spec)
		end()
		if err != nil {
			return fmt.Errorf("inline execute: %w", err)
		}
		if !bytes.Equal(rt.out, want) {
			return fmt.Errorf("result bytes differ from an inline farm.Execute of the same spec")
		}
	}
	if i == 0 {
		w.first[j] = rt.out
	} else if !bytes.Equal(rt.out, w.first[j]) {
		return fmt.Errorf("result bytes differ from pass 0's")
	}
	return nil
}

// checkCached requires a resubmission to be served without executing
// (done when Submit returned) and to return the executed job's bytes.
func checkCached(j int, rt, executed roundTrip) error {
	switch {
	case rt.err != nil:
		return fmt.Errorf("farm resubmission %d: %w", j, rt.err)
	case !rt.atSubmit:
		return fmt.Errorf("farm resubmission %d was not served from the cache (job %d ran again)", j, rt.id)
	case !bytes.Equal(rt.out, executed.out):
		return fmt.Errorf("farm resubmission %d: cached bytes differ from the executed result", j)
	}
	return nil
}

// jobEvents reads each executed job's lifecycle events: queue time runs
// from enqueue to the first start, execution from that start to done.
func (w *farmLoad) jobEvents(ctx context.Context, executed []roundTrip) {
	c := w.clients[0]
	for _, rt := range executed {
		if rt.err != nil {
			continue
		}
		_, events, err := c.JobEvents(ctx, rt.id)
		if err != nil {
			continue
		}
		var enq, start, done int64
		for _, ev := range events {
			switch {
			case ev.Type == "enqueue" && enq == 0:
				enq = ev.TS
			case ev.Type == "start" && start == 0:
				start = ev.TS
			case ev.Type == "done":
				done = ev.TS
			}
		}
		if enq > 0 && start >= enq && done >= start {
			w.queueMS = append(w.queueMS, float64(start-enq)/1e6)
			w.execMS = append(w.execMS, float64(done-start)/1e6)
		}
	}
}

// layer reports the per-layer metrics only the farm workload can read.
func (w *farmLoad) layer() map[string]float64 {
	return map[string]float64{
		"farm.queue_ms_p50": median(w.queueMS),
		"farm.exec_ms_p50":  median(w.execMS),
	}
}
