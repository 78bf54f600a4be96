package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/serve"
)

// The gridd workload: an in-process gateway over loopback with two
// closed-loop clients on two tenants. It repeats the default cycle of
// cmd/gridload, the repository's load generator: a cold round of
// roundSpecs fresh simulated-cluster specs, submitted one at a time,
// then hotRounds rounds over the same specs from both clients at once,
// which must be cache hits. One submission in 1+hotRounds is fresh.
// An op is one submission.
const (
	griddClients = 2
	roundSpecs   = 8
	hotRounds    = 6
	cycleLen     = roundSpecs * (1 + hotRounds)
)

// coldStrata partition the fresh specs. The stream visits every
// stratum once per cycle, in a seeded order; inside a stratum it walks
// a seeded permutation of the rank counts, so every run covers each
// stratum evenly and its cost mix stays steady across seeds. IS at 256
// ranks and beyond runs on the event scheduler, below on goroutine
// ranks. The goroutine scheduler's heap grows with the square of the
// rank count (about 0.4 GB for IS at 127 ranks and 1.7 GB at 255), so
// the stream leaves out IS at 96-255 ranks and nbody beyond 16 ranks,
// which keeps one job's heap near a quarter of a gigabyte.
var coldStrata = []struct {
	kind   string
	lo, hi int // ranks, half-open
}{
	{"is", 8, 52}, {"is", 52, 96}, {"is", 256, 384}, {"is", 384, 513},
	{"nbody", 4, 10}, {"nbody", 10, 17},
}

// isFabrics make IS specs unique once a stratum's rank counts are used
// up: each pass over a stratum runs on the next fabric topology.
var isFabrics = []string{"star", "fattree", "torus2d", "torus3d"}

// specStream yields fresh spec bodies, each distinct from every other.
type specStream struct {
	rng    *rand.Rand
	cycle  []int   // strata left in the current cycle
	ranks  [][]int // per stratum: a permutation of its rank offsets
	visits []int   // per stratum: specs drawn so far
	sizes  []int   // nbody particle counts, a permutation of 2000-4000
}

func newSpecStream(seed uint64) *specStream {
	s := &specStream{rng: rand.New(rand.NewPCG(seed, 0x5bec)), visits: make([]int, len(coldStrata))}
	for _, st := range coldStrata {
		s.ranks = append(s.ranks, s.rng.Perm(st.hi-st.lo))
	}
	for _, v := range s.rng.Perm(2001) {
		s.sizes = append(s.sizes, 2000+v)
	}
	return s
}

func (s *specStream) next() ([]byte, error) {
	if len(s.cycle) == 0 {
		s.cycle = s.rng.Perm(len(coldStrata))
	}
	i := s.cycle[0]
	s.cycle = s.cycle[1:]
	st, v := coldStrata[i], s.visits[i]
	s.visits[i]++
	ranks := st.lo + s.ranks[i][v%(st.hi-st.lo)]
	if st.kind == "is" {
		pass := v / (st.hi - st.lo)
		if pass >= len(isFabrics) {
			return nil, fmt.Errorf("%w: IS at %d-%d ranks", errStreamEnd, st.lo, st.hi-1)
		}
		return fmt.Appendf(nil, `{"api":"repro/spec/v1","kind":"naskernels","spec":{"class":"S","kernel":"IS","ranks":%d,"fabric":%q}}`,
			ranks, isFabrics[pass]), nil
	}
	if len(s.sizes) == 0 {
		return nil, fmt.Errorf("%w: nbody", errStreamEnd)
	}
	n := s.sizes[0]
	s.sizes = s.sizes[1:]
	return fmt.Appendf(nil, `{"api":"repro/spec/v1","kind":"nbody","spec":{"n":%d,"steps":2,"ranks":%d}}`, n, ranks), nil
}

// request is one submission's record.
type request struct {
	cold, traced, ok bool
	latency          time.Duration
	decodeHash       time.Duration // traced only
	bytes            int
	elapsedMS        int64
	messages, mbytes uint64
}

// resultDoc is the part of a result document the checks read.
type resultDoc struct {
	Kind   string `json:"kind"`
	Result struct {
		Data json.RawMessage `json:"data"`
	} `json:"result"`
	Obs struct {
		Samples []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"samples"`
	} `json:"obs"`
}

func (d *resultDoc) sample(name string) float64 {
	for _, s := range d.Obs.Samples {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// checkDoc verifies a cold document: every NAS row must be verified.
func checkDoc(doc []byte) (*resultDoc, error) {
	var d resultDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("result document: %w", err)
	}
	if d.Kind != "naskernels" {
		return &d, nil
	}
	var rows []struct {
		Kernel   string `json:"kernel"`
		Verified bool   `json:"verified"`
	}
	if err := json.Unmarshal(d.Result.Data, &rows); err != nil {
		return nil, fmt.Errorf("naskernels rows: %w", err)
	}
	if len(rows) == 0 {
		return nil, errors.New("naskernels result has no rows")
	}
	for _, r := range rows {
		if !r.Verified {
			return nil, fmt.Errorf("NAS %s not verified", r.Kernel)
		}
	}
	return &d, nil
}

// checkHit verifies a repeat: served from the cache, byte-identical to
// the cold document.
func checkHit(env *serve.Envelope, cold []byte) error {
	switch {
	case !env.Cached:
		return errors.New("repeat of a completed spec missed the cache")
	case cold == nil:
		return errors.New("no cold document for the repeated spec")
	case !bytes.Equal(env.Doc, cold):
		return fmt.Errorf("hit document differs from the cold one (%d vs %d bytes)", len(env.Doc), len(cold))
	}
	return nil
}

// gateway is one in-process gateway on a loopback listener.
type gateway struct {
	gw *serve.Server
	ts *httptest.Server
}

func startGateway() (*gateway, error) {
	// The gateway's fresh specs run on the TM5600 models; calibrating
	// them here keeps calibration out of the first cold latencies.
	cpu.ResetCalibCache()
	for _, miss := range []float64{cpu.MissRateClassW, cpu.MissRateTree} {
		if _, err := cpu.CalibrateFor(cpu.NewTM5600(), miss); err != nil {
			return nil, err
		}
	}
	g := &gateway{gw: serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0)})}
	g.ts = httptest.NewServer(g.gw.Handler())
	resp, err := http.Get(g.ts.URL + "/healthz")
	if err != nil {
		g.close()
		return nil, err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		g.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return g, nil
}

func (g *gateway) close() error {
	g.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return g.gw.Close(ctx)
}

// stats reads the gateway's /v1/stats counters.
func (g *gateway) stats() (map[string]float64, error) {
	resp, err := http.Get(g.ts.URL + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var d resultDoc
	if err := json.NewDecoder(resp.Body).Decode(&d.Obs); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	m := map[string]float64{}
	for _, s := range d.Obs.Samples {
		m[s.Name] = s.Value
	}
	return m, nil
}

func runGridd(cfg config, out *outcome) error {
	var gws []*gateway
	setup, err := timeSetup(5, func() error {
		g, err := startGateway()
		gws = append(gws, g)
		return err
	})
	for _, g := range gws[:len(gws)-1] {
		if g != nil {
			g.close()
		}
	}
	if err != nil {
		return err
	}
	g := gws[len(gws)-1]
	defer g.close()
	out.note("setup_s", "s", setup)

	stream := newSpecStream(cfg.seed)
	clients := make([]*client, min(griddClients, runtime.GOMAXPROCS(0)))
	for i := range clients {
		clients[i] = newClient(i)
		defer clients[i].close()
	}
	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	cycleHeap := load(cfg, g.ts.URL, clients, start, stream, heap)
	wall := time.Since(start)
	rt1 := readRuntime()
	runHeapMB := heap.peakMB()
	heapMB := median(cycleHeap)

	var all []request
	for _, c := range clients {
		all = append(all, c.recs...)
		for _, e := range c.errs {
			out.check("request", errors.New(e))
		}
	}
	var hits, colds []float64
	ok := 0
	for _, r := range all {
		if !r.ok {
			continue
		}
		ok++
		out.op(1)
		if r.cold {
			colds = append(colds, ms(r.latency))
		} else {
			hits = append(hits, ms(r.latency))
		}
	}
	if len(hits) == 0 || len(colds) == 0 {
		return fmt.Errorf("gridd run completed %d hits and %d cold jobs; it needs both", len(hits), len(colds))
	}
	hitP50 := median(hits)
	rate := float64(ok) / wall.Seconds()
	out.note("hit_ms_p50", "ms", hitP50)
	noteTail(out, "hit_ms_p99", hits, 0.99)
	out.note("cold_ms_p50", "ms", median(colds))
	noteTail(out, "cold_ms_p90", colds, 0.90)
	out.note("hits", "count", float64(len(hits)))
	out.note("cold_jobs", "count", float64(len(colds)))
	out.note("req_per_s", "1/s", rate)
	out.note("heap_peak_mb", "MB", heapMB)
	out.note("heap_peak_run_mb", "MB", runHeapMB)
	if !cfg.trace {
		out.set("setup_s", setup)
		out.set("op_ms", hitP50)
		out.set("ops_per_s", rate)
		out.set("heap_peak_mb", heapMB)
		return nil
	}
	out.setRuntime(rt0, rt1, len(all))
	st, err := g.stats()
	if err != nil {
		return err
	}
	griddLayers(all, st, out)
	return nil
}

// noteTail reports a tail percentile when the run holds at least ten
// samples beyond it.
func noteTail(out *outcome, name string, xs []float64, q float64) {
	if v, ok := quantile(xs, q); ok {
		out.note(name, "ms", v)
	}
}

func griddLayers(all []request, st map[string]float64, out *outcome) {
	var dh, docB, runMS, queueMS, msgs, mbytes, wall float64
	var nTraced, nCold int
	var tracedHits, plainHits []float64
	for _, r := range all {
		if !r.ok {
			continue
		}
		if !r.cold {
			if r.traced {
				tracedHits = append(tracedHits, ms(r.latency))
			} else {
				plainHits = append(plainHits, ms(r.latency))
			}
		}
		if !r.traced {
			continue
		}
		nTraced++
		dh += ms(r.decodeHash)
		docB += float64(r.bytes)
		wall += ms(r.latency)
		if !r.cold {
			continue
		}
		nCold++
		runMS += float64(r.elapsedMS)
		queueMS += ms(r.latency) - float64(r.elapsedMS)
		msgs += float64(r.messages)
		mbytes += float64(r.mbytes)
	}
	if nTraced > 0 {
		out.set("serve.decode_hash_us", dh*1000/float64(nTraced))
		out.set("serve.doc_kb", docB/float64(nTraced)/1000)
	}
	// The gateway has no tracer hook, so a traced request runs the same
	// code inside its timing as an untraced one: the overhead reads the
	// hits' noise.
	if len(tracedHits) > 0 && len(plainHits) > 0 {
		out.set("trace_overhead_frac", median(tracedHits)/median(plainHits)-1)
	}
	if nCold > 0 {
		out.set("serve.run_ms", runMS/float64(nCold))
		out.set("serve.queue_ms", queueMS/float64(nCold))
		out.set("mpi.messages", msgs/float64(nCold))
		out.set("mpi.bytes", mbytes/float64(nCold))
		if msgs > 0 {
			out.set("mpi.host_us_per_msg", runMS*1000/msgs)
		}
		// The measured layers of a traced request are the job's run
		// time and decode-and-hash, which the gateway does to every
		// body and the client times on a copy. Queueing, HTTP, the
		// cache lookup and encoding are the rest.
		out.set("unaccounted_frac", 1-(dh+runMS)/wall)
	}
	if lookups := st["serve.cache.hits"] + st["serve.cache.misses"]; lookups > 0 {
		out.set("serve.hit_ratio", st["serve.cache.hits"]/lookups)
	}
	out.set("serve.coalesced", st["serve.coalesced"])
	out.set("serve.rejected", st["serve.rejected.queue_full"]+st["serve.rejected.bad_spec"])
}

// roundSpec is one spec of a client's round: its body and, once its
// cold submission has passed its checks, the document hits must match.
type roundSpec struct{ body, doc []byte }

// client is one closed-loop client on its own connection and tenant,
// with the record of its submissions.
type client struct {
	tr     *http.Transport
	http   *http.Client
	tenant string
	recs   []request
	errs   []string
}

func newClient(id int) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{tr: tr, http: &http.Client{Transport: tr}, tenant: fmt.Sprintf("tenant-%d", id%2)}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// load runs whole cycles until the measurement ends: a cold round of
// fresh specs, which the clients submit one at a time in turn, then the
// hot rounds over the same specs, which the clients submit
// concurrently, each waiting for its reply before the next. In a
// traced run, alternate cycles are traced. It returns each complete
// cycle's peak heap in MB.
func load(cfg config, url string, clients []*client, start time.Time, stream *specStream, heap *heapSampler) []float64 {
	var round [roundSpecs]roundSpec
	var peaks []float64
	for cycle := 0; time.Since(start) < cfg.measure(); cycle++ {
		traced := cfg.trace && cycle%2 == 0
		for k := range round {
			err := clients[k%len(clients)].do(request{cold: true, traced: traced}, url, &round[k], stream)
			if errors.Is(err, errStreamEnd) {
				return peaks
			}
		}
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := i; j < roundSpecs*hotRounds; j += len(clients) {
					if spec := &round[j%roundSpecs]; spec.doc != nil { // else its cold submission failed
						c.do(request{traced: traced}, url, spec, stream)
					}
				}
			}()
		}
		wg.Wait()
		peaks = append(peaks, heap.lapMB())
	}
	return peaks
}

// do submits one request, checks the reply and records both.
func (c *client) do(r request, url string, spec *roundSpec, stream *specStream) error {
	err := r.run(c.http, url, c.tenant, spec, stream)
	c.recs = append(c.recs, r)
	if err != nil {
		c.errs = append(c.errs, err.Error())
	} else {
		c.recs[len(c.recs)-1].ok = true
	}
	return err
}

// errStreamEnd reports that the stream of fresh specs is used up.
var errStreamEnd = errors.New("fresh specs used up")

// run submits a spec and checks the reply. A cold submission draws a
// fresh body and, if it passes, records its document for the hits.
func (r *request) run(client *http.Client, url, tenant string, spec *roundSpec, stream *specStream) error {
	if r.cold {
		body, err := stream.next()
		if err != nil {
			return err
		}
		*spec = roundSpec{body: body}
	}
	if r.traced {
		var err error
		if r.decodeHash, err = decodeHash(spec.body); err != nil {
			return err
		}
	}
	env, err := submit(client, url, tenant, spec.body, r)
	if err != nil {
		return err
	}
	if !r.cold {
		return checkHit(env, spec.doc)
	}
	d, err := checkDoc(env.Doc)
	if err != nil {
		return err
	}
	r.elapsedMS = env.ElapsedMS
	r.messages = uint64(d.sample("mpi.messages.total"))
	r.mbytes = uint64(d.sample("mpi.bytes.total"))
	spec.doc = env.Doc
	return nil
}

// decodeHash times the gateway's per-body work on the client:
// decode, canonicalize, validate and hash.
func decodeHash(body []byte) (time.Duration, error) {
	t0 := time.Now()
	spec, err := core.DecodeSpec(body)
	if err != nil {
		return 0, err
	}
	canon, err := core.CanonicalSpec(spec)
	if err != nil {
		return 0, err
	}
	if err := canon.Validate(); err != nil {
		return 0, err
	}
	if _, err := core.SpecHash(canon); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// submit posts one body and times it until the whole reply is read.
func submit(client *http.Client, url, tenant string, body []byte, r *request) (*serve.Envelope, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/experiments", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	if err != nil {
		return nil, err
	}
	r.bytes = len(raw)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s: %.200s", resp.Status, raw)
	}
	var env serve.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	return &env, nil
}
