package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	msim "simdtree/internal/metrics"
	"simdtree/internal/server"
	"simdtree/internal/traffic"
)

// serveRate is the open loop's offered rate in requests per second, about
// an eighth of the closed-loop capacity (1 000 to 1 400 requests per
// second) of the seed commit on a 2-CPU host, so that job_p99_ms prices
// the service's own tail (engine runs slowed by the other executor, HTTP
// and the host) more than waiting for one of the two issuing goroutines.
// In two ten-run sweeps the p99 spread 0.07 and 0.27; at twice this rate,
// 0.22 and 0.36.
const serveRate = 150.0

// The open loop runs for serveOpenShare of a phase, the closed loop for the
// rest: the open loop's p99 needs the requests (about 2 800 in a 25 s run),
// while the closed loop's throughput does not.
const serveOpenShare = 0.75

// serveSetups is how many times a run starts a server to time set-up.
const serveSetups = 25

// The submissions follow simdload's default workload (cmd/simdload, as
// recorded in BENCH_1.json): synthetic trees of W = serveW at P = serveP
// under serveScheme, where a serveHot share of submissions reuse the
// current hot spec, rotated every serveHotRotate submissions, and the rest
// are unique, each its own engine run; tenants are drawn among serveTenants
// labels.  Polls are not part of simdload's load: servePollPct, the share
// of requests that poll the newest completed write, is this benchmark's own
// design point and has no measured source.
const (
	serveW         = 20_000
	serveP         = 64
	serveScheme    = "GP-S0.90"
	serveHot       = 0.5
	serveHotRotate = 100
	serveTenants   = 3
	servePollPct   = 15
)

// opKind is the kind of one request of the mix.
type opKind int

const (
	opWrite opKind = iota // a unique spec: an engine run
	opRead                // the hot spec: an engine run, a collapse or a cache hit
	opPoll                // GET /v1/jobs/{id} of the newest completed write
)

// mix generates the request sequence.  The sequence of kinds, specs and
// tenants is a function of the seed; which issuing goroutine sends a
// request is not.
type mix struct {
	mu          sync.Mutex
	rng         *rand.Rand
	seed        uint64
	stream      uint64
	submissions uint64
	unique      uint64
	lastJob     string // newest completed write, "" before the first
}

func newMix(seed uint64, stream uint64) *mix {
	return &mix{rng: rand.New(rand.NewPCG(seed, stream)), seed: seed, stream: stream}
}

type serveOp struct {
	kind   opKind
	tenant string
	spec   server.JobSpec // writes and reads
	jobID  string         // polls
}

func (m *mix) op() serveOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	op := serveOp{kind: opWrite, tenant: fmt.Sprintf("load-%d", m.rng.IntN(serveTenants))}
	if m.rng.IntN(100) < servePollPct && m.lastJob != "" {
		op.kind, op.jobID = opPoll, m.lastJob
		return op
	}
	m.submissions++
	// Tree seeds never repeat between mixes in one process: the seed fills
	// the high 32 bits and the stream the next 8; bit 23 marks a hot spec,
	// whose low bits count rotations, and a unique spec counts in the low
	// 23 bits.
	treeSeed := m.seed<<32 | m.stream<<24
	if m.rng.Float64() < serveHot {
		op.kind = opRead
		treeSeed |= 1<<23 | m.submissions/serveHotRotate
	} else {
		m.unique++
		treeSeed |= m.unique
	}
	op.spec = server.JobSpec{
		Domain:    "synthetic",
		Scheme:    serveScheme,
		P:         serveP,
		Synthetic: &server.SyntheticSpec{W: serveW, Seed: treeSeed},
	}
	return op
}

// completed records the job id of a finished write for later polls.
func (m *mix) completed(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastJob = id
}

// jobDoc is the part of a job document the benchmark reads.
type jobDoc struct {
	ID          string          `json:"id"`
	Status      string          `json:"status"`
	CacheKey    string          `json:"cache_key"`
	CacheHit    bool            `json:"cache_hit"`
	Spec        server.JobSpec  `json:"spec"`
	Stats       json.RawMessage `json:"stats"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
}

// verifier checks responses: every response for one cache key carries
// byte-identical stats, every response naming one job id (collapsed
// waiters share the id) is byte-identical in full, and the stats match the
// spec's tree size.
type verifier struct {
	mu     sync.Mutex
	stats  map[string]string   // cache key -> stats bytes
	bodies map[string][32]byte // job id -> hash of the first POST body
}

func newVerifier() *verifier {
	return &verifier{stats: map[string]string{}, bodies: map[string][32]byte{}}
}

// check verifies one 200 response body and returns its document.
func (v *verifier) check(kind opKind, body []byte) (jobDoc, msim.Stats, error) {
	var doc jobDoc
	var st msim.Stats
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, st, fmt.Errorf("decoding job document: %w", err)
	}
	if doc.Status != string(server.StatusDone) {
		return doc, st, fmt.Errorf("job %s is %s, want done", doc.ID, doc.Status)
	}
	if err := json.Unmarshal(doc.Stats, &st); err != nil {
		return doc, st, fmt.Errorf("job %s: decoding stats: %w", doc.ID, err)
	}
	if doc.Spec.Synthetic == nil || st.W != doc.Spec.Synthetic.W {
		return doc, st, fmt.Errorf("job %s expanded %d nodes, its spec asks for a tree of %v", doc.ID, st.W, doc.Spec.Synthetic)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if first, ok := v.stats[doc.CacheKey]; !ok {
		v.stats[doc.CacheKey] = string(doc.Stats)
	} else if first != string(doc.Stats) {
		return doc, st, fmt.Errorf("key %s: stats differ between responses", doc.CacheKey)
	}
	if kind != opPoll {
		sum := sha256.Sum256(body)
		if first, ok := v.bodies[doc.ID]; !ok {
			v.bodies[doc.ID] = sum
		} else if first != sum {
			return doc, st, fmt.Errorf("job %s: collapsed responses differ", doc.ID)
		}
	}
	return doc, st, nil
}

// reqResult is one finished request.
type reqResult struct {
	kind      opKind
	due, sent time.Time
	done      time.Time
	err       error
	collapsed bool
	doc       jobDoc
	stats     msim.Stats
}

// serveNode is one in-process server with the traffic frontend on a
// loopback listener.
type serveNode struct {
	base    string
	svc     *server.Server
	httpSrv *http.Server
	served  chan error
}

// startServeNode starts a server with simdserve's defaults (a DRR queue of
// 64, 512 cached results, 4 096 finished jobs kept), one job executor per
// CPU.  Each job runs its cycles sequentially (SimWorkers 1, the default),
// so the executors' engine goroutines number nproc; with SimWorkers =
// nproc as well, two jobs' barrier-synchronised workers would share each
// CPU.
func startServeNode() (*serveNode, error) {
	drr := traffic.NewDRR(64, 1)
	svc, err := server.New(server.Config{
		Workers:      runtime.NumCPU(),
		QueueSize:    64,
		Scheduler:    drr,
		DrainTimeout: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	return listen(svc, traffic.New(svc, drr, traffic.Config{}).Handler())
}

// listen serves h on a loopback port.
func listen(svc *server.Server, h http.Handler) (*serveNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, shutdownServer(svc))
	}
	n := &serveNode{
		base:    "http://" + ln.Addr().String(),
		svc:     svc,
		httpSrv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served:  make(chan error, 1),
	}
	go func() { n.served <- n.httpSrv.Serve(ln) }()
	return n, nil
}

func shutdownServer(svc *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return svc.Shutdown(ctx)
}

// stop shuts the node down and waits for its serving goroutine to end.
func (n *serveNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.httpSrv.Shutdown(ctx)
	if serr := <-n.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, n.svc.Shutdown(ctx))
}

// newLoopbackClient returns a client holding at most conns connections.
func newLoopbackClient(conns int, wrap func(http.RoundTripper) http.RoundTripper) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// spanKey carries a request's span id to the RoundTripper.
type spanKey struct{}

// timedTransport records one span per HTTP round trip, under the span its
// request's context names.
type timedTransport struct {
	rt http.RoundTripper
	tr *tracer
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, ok := r.Context().Value(spanKey{}).(int)
	if !ok {
		parent = -1
	}
	id := t.tr.begin("http.roundtrip", parent)
	defer t.tr.end(id)
	return t.rt.RoundTrip(r)
}

// serveClient sends the mix's requests.
type serveClient struct {
	base   string
	client *http.Client
	mix    *mix
	verify *verifier
	tr     *tracer // nil when untraced
	phase  int     // span of the current phase when traced
}

// do sends one request and checks its response.
func (c *serveClient) do(ctx context.Context, op serveOp) reqResult {
	res := reqResult{kind: op.kind, sent: time.Now()}
	if c.tr != nil {
		id := c.tr.begin("serve.request", c.phase)
		defer c.tr.end(id)
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	var req *http.Request
	var err error
	if op.kind == opPoll {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+op.jobID, nil)
	} else {
		var body []byte
		if body, err = json.Marshal(op.spec); err == nil {
			req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs?wait=1", bytes.NewReader(body))
		}
	}
	if err != nil {
		res.err, res.done = err, time.Now()
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.TenantHeader, op.tenant)
	resp, err := c.client.Do(req)
	if err != nil {
		res.err, res.done = err, time.Now()
		return res
	}
	body, err := io.ReadAll(resp.Body)
	res.done = time.Now()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, body)
	default:
		res.collapsed = resp.Header.Get("X-Collapsed") != ""
		res.doc, res.stats, res.err = c.verify.check(op.kind, body)
	}
	if res.err == nil && op.kind == opWrite {
		c.mix.completed(res.doc.ID)
	}
	return res
}

// openLoop sends n requests due at a fixed rate, from no more issuing
// goroutines than CPUs.  A request is timed from when it was due, so a
// stall delays the requests behind it and shows in their latency.
func (c *serveClient) openLoop(ctx context.Context, rate float64, d time.Duration) []reqResult {
	n := int(rate * d.Seconds())
	results := make([]reqResult, n)
	var mu sync.Mutex
	next := 0
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				var op serveOp
				if i < n {
					op = c.mix.op()
				}
				mu.Unlock()
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(due)
				r := c.do(ctx, op)
				r.due = due
				results[i] = r
			}
		}()
	}
	wg.Wait()
	return results
}

// waitUntil sleeps until a millisecond before t, then yields in a loop
// until t.  A plain sleep wakes up to a millisecond late (the runtime's
// timer granularity), and a VM's idle vCPU can take longer still to wake;
// either would count as latency from the due time.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs one client per CPU, each sending its next request when
// the previous one completes, for d.
func (c *serveClient) closedLoop(ctx context.Context, d time.Duration) ([]reqResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]reqResult, runtime.NumCPU())
	var wg sync.WaitGroup
	for g := range per {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := c.do(ctx, c.mix.op())
				r.due = r.sent
				per[g] = append(per[g], r)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []reqResult
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all, elapsed
}

// servePhase is the untraced or traced half of a serve-mixed run.
type servePhase struct {
	rate         float64 // the open loop's offered requests per second
	open, closed []reqResult
	closedWall   time.Duration
}

// engineWork sums, over the distinct keys the closed loop ran on the
// engine, the nodes expanded and the paper's E.
func (p *servePhase) engineWork() (nodes int64, eff float64) {
	seen := map[string]bool{}
	var calc, par float64
	for _, r := range p.closed {
		if r.err != nil || r.kind == opPoll || r.doc.CacheHit || seen[r.doc.CacheKey] {
			continue
		}
		seen[r.doc.CacheKey] = true
		nodes += r.stats.W
		calc += float64(r.stats.Tcalc)
		par += float64(r.stats.P) * float64(r.stats.Tpar)
	}
	return nodes, calc / par
}

func (p *servePhase) nodesPerSecond() float64 {
	nodes, _ := p.engineWork()
	return float64(nodes) / p.closedWall.Seconds()
}

func (p *servePhase) tally() tally {
	var t tally
	for _, rs := range [][]reqResult{p.open, p.closed} {
		for _, r := range rs {
			t.record(r.err)
		}
	}
	return t
}

func runServe(ctx context.Context, e *env) (outcome, error) {
	warm := 200
	if e.tiny {
		warm = 10
	}
	// Set-up (server start, listen and the first request) takes a few
	// milliseconds, so it is timed serveSetups times; the last node serves
	// the run, after an untimed warm-up that fills the connection pool and
	// lets lazy set-up finish.
	var setups []float64
	var node *serveNode
	var warmer *serveClient
	for i := 0; i < serveSetups; i++ {
		start := time.Now()
		n, err := startServeNode()
		var c *serveClient
		if err == nil {
			c = newWarmClient(n.base, e.seed, uint64(12+i)) // streams 10 and 11 are the run's
			err = c.warmUp(ctx, 1)
		}
		if err != nil {
			return outcome{}, errors.Join(err, stopIf(n))
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < serveSetups-1 {
			c.client.CloseIdleConnections()
			if err := n.stop(); err != nil {
				return outcome{}, err
			}
		} else {
			node, warmer = n, c
		}
	}
	err := warmer.warmUp(ctx, warm-1)
	warmer.client.CloseIdleConnections()
	var out outcome
	if err == nil {
		out, err = serveRun(ctx, e, node)
	}
	if serr := node.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return outcome{}, err
	}
	if !e.traced {
		printSpread(e.out, "set-up (s)", setups)
		out.metrics.set("setup_s", median(setups), "s")
		out.metrics.set("max_rss_bytes", maxRSSBytes(), "bytes")
	}
	return out, nil
}

// newWarmClient returns a client for the warm-up, with a mix of its own.
func newWarmClient(base string, seed, stream uint64) *serveClient {
	return &serveClient{
		base:   base,
		client: newLoopbackClient(runtime.NumCPU(), nil),
		mix:    newMix(seed, stream),
		verify: newVerifier(),
		phase:  -1,
	}
}

// warmUp sends n requests of the mix, one at a time.
func (c *serveClient) warmUp(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if r := c.do(ctx, c.mix.op()); r.err != nil {
			return fmt.Errorf("warm-up request: %w", r.err)
		}
	}
	return nil
}

func stopIf(n *serveNode) error {
	if n == nil {
		return nil
	}
	return n.stop()
}

func serveRun(ctx context.Context, e *env, node *serveNode) (outcome, error) {
	rate := serveRate
	if e.tiny {
		rate = 400 // a few dozen requests in a test-sized open loop
	}
	verify := newVerifier()
	mk := func(tr *tracer, stream uint64) *serveClient {
		var wrap func(http.RoundTripper) http.RoundTripper
		if tr != nil {
			wrap = func(rt http.RoundTripper) http.RoundTripper { return &timedTransport{rt: rt, tr: tr} }
		}
		return &serveClient{
			base:   node.base,
			client: newLoopbackClient(runtime.NumCPU(), wrap),
			mix:    newMix(e.seed, stream),
			verify: verify,
			tr:     tr,
			phase:  -1,
		}
	}
	phase := func(c *serveClient, d time.Duration) servePhase {
		defer c.client.CloseIdleConnections()
		p := servePhase{rate: rate}
		if c.tr != nil {
			c.phase = c.tr.begin("serve.open_loop", -1)
		}
		p.open = c.openLoop(ctx, rate, time.Duration(serveOpenShare*float64(d)))
		if c.tr != nil {
			c.tr.end(c.phase)
			c.phase = c.tr.begin("serve.closed_loop", -1)
		}
		p.closed, p.closedWall = c.closedLoop(ctx, time.Duration((1-serveOpenShare)*float64(d)))
		if c.tr != nil {
			c.tr.end(c.phase)
		}
		return p
	}

	m := metrics{}
	if !e.traced {
		p := phase(mk(nil, 10), e.seconds)
		serveEndToEnd(e.out, p, m)
		return outcome{tally: p.tally(), metrics: m}, nil
	}
	un := phase(mk(nil, 10), e.seconds/2)
	tr := newTracer()
	p := phase(mk(tr, 11), e.seconds/2)
	if err := tr.writeFile(spansPath(e, "serve")); err != nil {
		return outcome{}, err
	}
	serveLayers(p, m)
	var cycles, lb, transfers, jobs float64
	for _, r := range p.closed {
		if r.err == nil && r.kind == opWrite {
			cycles += float64(r.stats.Cycles)
			lb += float64(r.stats.LBPhases)
			transfers += float64(r.stats.Transfers)
			jobs++
		}
	}
	m.set("simd.cycles", cycles/jobs, "count")
	m.set("simd.lb_phases", lb/jobs, "count")
	m.set("simd.transfers", transfers/jobs, "count")
	m.set("trace.overhead_share", 1-p.nodesPerSecond()/un.nodesPerSecond(), "share")
	t := un.tally()
	t.add(p.tally())
	return outcome{tally: t, metrics: m}, nil
}

// serveEndToEnd reports the user-visible metrics of an untraced phase.
func serveEndToEnd(w io.Writer, p servePhase, m metrics) {
	lat := make([]float64, 0, len(p.open))
	late := make([]float64, 0, len(p.open))
	for _, r := range p.open {
		late = append(late, ms(r.sent.Sub(r.due)))
		l := math.Inf(1)
		if r.err == nil {
			l = ms(r.done.Sub(r.due))
		}
		lat = append(lat, l)
	}
	jobs := 0
	for _, r := range p.closed {
		if r.err == nil && r.kind != opPoll {
			jobs++
		}
	}
	_, eff := p.engineWork()
	m.set("nodes_per_s", p.nodesPerSecond(), "1/s")
	m.set("efficiency", eff, "ratio")
	m.set("job_p50_ms", quantile(lat, 0.50), "ms")
	m.set("job_p99_ms", quantile(lat, 0.99), "ms")
	m.set("capacity_jobs_per_s", float64(jobs)/p.closedWall.Seconds(), "1/s")
	fmt.Fprintf(w, "open loop: %d requests offered at %g/s; generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms\n",
		len(p.open), p.rate, quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	fmt.Fprintf(w, "closed loop: %d clients, %d requests in %.3f s\n", runtime.NumCPU(), len(p.closed), p.closedWall.Seconds())
}

// serveLayers reports the server and traffic layers' metrics from the
// traced phase's open loop, where the offered load is fixed.
func serveLayers(p servePhase, m metrics) {
	var queue, run, overhead, late []float64
	var submissions, hits, collapsed float64
	for _, r := range p.open {
		late = append(late, ms(r.sent.Sub(r.due)))
		if r.err != nil || r.kind == opPoll {
			continue
		}
		submissions++
		if r.doc.CacheHit {
			hits++
		}
		if r.collapsed {
			collapsed++
		}
		d := r.doc
		if !d.CacheHit && !d.StartedAt.IsZero() {
			queue = append(queue, ms(d.StartedAt.Sub(d.SubmittedAt)))
			run = append(run, ms(d.FinishedAt.Sub(d.StartedAt)))
		}
		if !r.collapsed {
			// A collapsed response carries the leading request's
			// timestamps, not this one's.
			overhead = append(overhead, ms(r.done.Sub(r.sent)-d.FinishedAt.Sub(d.SubmittedAt)))
		}
	}
	m.set("server.queue_wait_ms_p50", quantile(queue, 0.50), "ms")
	m.set("server.queue_wait_ms_p99", quantile(queue, 0.99), "ms")
	m.set("server.run_ms_p50", quantile(run, 0.50), "ms")
	m.set("server.cache_hit_share", hits/submissions, "share")
	m.set("traffic.collapse_share", collapsed/submissions, "share")
	m.set("traffic.http_overhead_ms_p50", quantile(overhead, 0.50), "ms")
	m.set("load.late_ms_p99", quantile(late, 0.99), "ms")
}
