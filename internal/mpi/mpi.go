// Package mpi is the message-passing substrate the paper's parallel codes
// (the treecode and the NAS benchmarks) run on. Ranks exchange real data
// through per-rank inboxes with one FIFO lane per sender (inbox.go), so
// parallel results are genuinely computed; ranks run as goroutines or as
// state machines on an event loop (event.go). Each rank carries a virtual
// clock, advanced by modelled compute time (via the CPU op-mix models) and
// by message costs from a netsim.Fabric, so a run yields both a correct
// answer and a simulated parallel runtime on the modelled cluster.
//
// Collectives are implemented on top of point-to-point sends (binomial
// trees, rings, dissemination barriers), so their virtual-time behaviour
// emerges from the same fabric model the analytical formulas in netsim
// describe — and the two are cross-checked in tests.
//
// The substrate is built for throughput on the host as well as fidelity
// on the modelled wire: payload buffers come from per-rank size-classed
// pools (pool.go), small payloads are eagerly copied while large ones
// take a rendezvous/ownership-transfer path, and the collectives have
// in-place variants that reduce into caller buffers (collectives.go).
// Sweeping a rank axis therefore measures the modelled fabric, not host
// allocation churn.
package mpi

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// message is one in-flight point-to-point transfer.
type message struct {
	tag     int
	f64     []float64
	i64     []int64
	bytes   []byte
	arrival float64 // virtual time the payload is fully received (uncontended)
}

func (m *message) payloadBytes() int {
	return 8*len(m.f64) + 8*len(m.i64) + len(m.bytes)
}

// Collective kinds, for the per-collective traffic counters.
const (
	ctxP2P = iota
	ctxBarrier
	ctxBcast
	ctxReduce
	ctxAllreduce
	ctxGather
	ctxScatter
	ctxAllgather
	ctxAlltoall
	numCtx
)

var ctxNames = [numCtx]string{
	"p2p", "barrier", "bcast", "reduce", "allreduce",
	"gather", "scatter", "allgather", "alltoall",
}

// DefaultRendezvousThreshold is the payload size (bytes) at or above
// which the substrate's internal sends prefer ownership transfer over an
// eager copy. 32 KiB keeps small control messages on the cheap eager
// path while large blocks (LET exports, ring segments) cross without a
// memcpy.
const DefaultRendezvousThreshold = 32 << 10

// DefaultWatchdogTimeout is how long the deadlock watchdog waits without
// any send or receive completing anywhere in the world before it aborts
// the run with a per-rank diagnostic. Generous enough that modelled
// compute phases never trip it; a genuinely mismatched send/recv fails
// in about this much host time instead of hanging CI.
const DefaultWatchdogTimeout = 60 * time.Second

// Config selects the substrate's optional behaviours. The zero value is
// the production default: pooling on, classic collectives, the default
// rendezvous threshold, and the watchdog armed.
type Config struct {
	// Fabric models the interconnect; nil = zero-cost network.
	Fabric *netsim.Fabric
	// DisablePool bypasses the buffer pools (every payload is a fresh
	// allocation) — the baseline the equivalence tests and the allocs/op
	// benchmarks compare the pooled path against. Results and virtual
	// times are bit-identical either way.
	DisablePool bool
	// Native switches Allreduce/Bcast (and their Into variants) to the
	// dedicated algorithms — recursive doubling, pipelined ring with
	// segmentation — instead of the classic reduce+bcast / binomial
	// patterns. Off by default so historical virtual times stay
	// bit-for-bit reproducible.
	Native bool
	// RendezvousThreshold overrides DefaultRendezvousThreshold (bytes);
	// 0 keeps the default.
	RendezvousThreshold int
	// SegmentBytes is the native pipelined-broadcast segment size;
	// 0 keeps the default (8 KiB).
	SegmentBytes int
	// WatchdogTimeout overrides DefaultWatchdogTimeout; 0 keeps the
	// default, negative disables the watchdog.
	WatchdogTimeout time.Duration
	// Event switches the world to the event-driven scheduler: ranks run
	// as resumable state machines (Proc) dispatched from a pending-op
	// heap over the virtual clock, instead of one goroutine per rank, so
	// worlds of 10k+ ranks cost a few hundred bytes per rank and no
	// host stacks. Virtual times, results and observability counters
	// are bit-identical to the goroutine path. Run an event world with
	// RunEvent; blocking Recv/collective calls panic on it.
	Event bool
}

// DefaultSegmentBytes is the native pipelined-broadcast segment size.
const DefaultSegmentBytes = 8 << 10

// World is a communicator universe of Size ranks.
type World struct {
	size   int
	fabric *netsim.Fabric // nil = zero-cost network
	cfg    Config
	comms  []*Comm

	// inbox[r] holds rank r's undelivered messages. Goroutine worlds
	// guard each inbox with guard[r]; event worlds leave guard nil and
	// keep the ready-rank heap in sched, live during RunEvent.
	inbox []inbox
	guard []rankSync
	sched *evScheduler

	// Watchdog plumbing, armed per Run.
	progress  atomic.Uint64
	stallCh   chan struct{}
	stallDiag string

	// Tracer, when non-nil, records every point-to-point send as a span
	// in the simulated-cluster time domain (obs.PidSim, virtual seconds
	// rendered as microsecond ticks; tid = sending rank). Collectives
	// are built on sends, so their structure emerges in the trace. Set
	// before Run.
	Tracer *obs.Tracer
}

// NewWorld creates a world with the default configuration (pooled
// buffers, classic collectives, watchdog armed). fabric may be nil for
// an untimed run.
func NewWorld(size int, fabric *netsim.Fabric) (*World, error) {
	return NewWorldWithConfig(size, Config{Fabric: fabric})
}

// NewWorldWithConfig creates a world with explicit substrate options.
func NewWorldWithConfig(size int, cfg Config) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size %d", size)
	}
	if cfg.Fabric != nil {
		if err := cfg.Fabric.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.RendezvousThreshold == 0 {
		cfg.RendezvousThreshold = DefaultRendezvousThreshold
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.WatchdogTimeout == 0 {
		cfg.WatchdogTimeout = DefaultWatchdogTimeout
	}
	if f := cfg.Fabric; f != nil {
		if cap := f.Capacity(); cap > 0 && size > cap {
			return nil, fmt.Errorf("mpi: world size %d exceeds fabric %q capacity %d", size, f.Name, cap)
		}
	}
	w := &World{size: size, fabric: cfg.Fabric, cfg: cfg, inbox: make([]inbox, size)}
	if !cfg.Event {
		w.guard = make([]rankSync, size)
		for i := range w.guard {
			w.guard[i].wake = make(chan struct{}, 1)
		}
	}
	w.comms = make([]*Comm, size)
	for r := 0; r < size; r++ {
		w.comms[r] = &Comm{world: w, rank: r}
		w.comms[r].pool.disabled = cfg.DisablePool
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes fn on every rank concurrently and waits for completion. It
// returns the first error any rank reported (panics are converted to
// errors so a failing rank cannot take down the test harness silently).
//
// A deadlock watchdog (Config.WatchdogTimeout) monitors message-level
// progress: if no send or receive completes anywhere in the world for
// the timeout, every blocked rank aborts with a diagnostic naming each
// rank's pending operation (rank, peer, tag), which Run returns as an
// error — a mismatched send/recv fails loudly instead of hanging.
func (w *World) Run(fn func(c *Comm) error) error {
	if w.cfg.Event {
		return fmt.Errorf("mpi: Run on an event-driven world; use RunEvent")
	}
	defer w.armWatchdog()()
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(w.comms[rank])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// armWatchdog starts the deadlock watchdog for one run, unless
// Config.WatchdogTimeout disables it, and returns its stop function.
func (w *World) armWatchdog() (stop func()) {
	w.stallCh = nil
	if w.cfg.WatchdogTimeout <= 0 {
		return func() {}
	}
	w.stallCh = make(chan struct{})
	done := make(chan struct{})
	go w.watch(w.cfg.WatchdogTimeout, w.stallCh, done)
	return func() { close(done) }
}

// watch is the deadlock watchdog: it samples the world-wide progress
// counter and, when it sees no completed send/recv for a full timeout
// window, records a per-rank diagnostic and closes stall, which makes
// every blocked rank panic (recovered into an error by Run).
func (w *World) watch(timeout time.Duration, stall, stop chan struct{}) {
	tick := timeout / 8
	if tick < 2*time.Millisecond {
		tick = 2 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	last := w.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			cur := w.progress.Load()
			if cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				w.stallDiag = w.describeRanks()
				close(stall)
				return
			}
		}
	}
}

// describeRanks renders every rank's pending blocking operation for the
// watchdog diagnostic.
func (w *World) describeRanks() string {
	var b strings.Builder
	for r, c := range w.comms {
		if r > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "rank %d: %s", r, c.pendingOp())
	}
	return b.String()
}

// MaxTime returns the parallel makespan: the maximum virtual clock over
// all ranks (call after Run).
func (w *World) MaxTime() float64 {
	m := 0.0
	for _, c := range w.comms {
		if c.now > m {
			m = c.now
		}
	}
	return m
}

// TotalBytes returns the bytes sent across all ranks (call after Run).
func (w *World) TotalBytes() int64 {
	var n int64
	for _, c := range w.comms {
		n += c.bytesSent
	}
	return n
}

// TotalMessages returns messages sent across all ranks (call after Run).
func (w *World) TotalMessages() int64 {
	var n int64
	for _, c := range w.comms {
		n += c.msgsSent
	}
	return n
}

// PoolStats returns the summed buffer-pool hit/miss counts across ranks
// (call after Run). Both are deterministic for a deterministic program.
func (w *World) PoolStats() (hits, misses int64) {
	for _, c := range w.comms {
		hits += c.pool.hits
		misses += c.pool.misses
	}
	return hits, misses
}

// Comm is one rank's endpoint.
type Comm struct {
	world     *World
	rank      int
	now       float64 // virtual time, seconds
	bytesSent int64
	msgsSent  int64

	pool bufPool
	// ctx tags sends with the outermost collective for the per-collective
	// traffic counters; ctxP2P between collectives.
	ctx        int
	bytesByCtx [numCtx]int64
	eagerMsgs  int64
	rdvMsgs    int64

	// portBusy is this rank's ingress-port occupancy horizon under the
	// contention model (netsim.Fabric.PortContention); delay accumulates
	// the virtual seconds messages waited for the port.
	portBusy float64
	delay    float64

	// The pending receive, read by senders and the watchdog.
	waiting  atomic.Bool // parked in a receive
	waitPeer atomic.Int32
	waitTag  atomic.Int32

	scratch [1]float64 // AllreduceScalar's zero-alloc staging
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Now returns the rank's virtual clock.
func (c *Comm) Now() float64 { return c.now }

// AddCompute advances the virtual clock by modelled computation time.
func (c *Comm) AddCompute(seconds float64) {
	if seconds < 0 {
		panic("mpi: negative compute time")
	}
	c.now += seconds
}

// pendingOp renders the rank's current blocking operation (watchdog
// diagnostic).
func (c *Comm) pendingOp() string {
	if c.waiting.Load() {
		return fmt.Sprintf("blocked in recv(src=%d, tag=%d)", c.waitPeer.Load(), c.waitTag.Load())
	}
	return "not blocked (computing or done)"
}

// enterCollective tags subsequent sends with the collective kind; nested
// collectives (allreduce's internal reduce+bcast) keep the outermost
// tag. exitCollective restores the previous context.
func (c *Comm) enterCollective(kind int) int {
	prev := c.ctx
	if prev == ctxP2P {
		c.ctx = kind
	}
	return prev
}

func (c *Comm) exitCollective(prev int) { c.ctx = prev }

// wantOwned reports whether an internal send of the given payload size
// should take the rendezvous (ownership-transfer) path.
func (c *Comm) wantOwned(bytes int) bool {
	return bytes >= c.world.cfg.RendezvousThreshold
}

// send transmits m to dst, advancing the virtual clocks per the fabric
// model. copied says whether the payload was eagerly copied (false =
// ownership transfer), for the eager/rendezvous counters.
func (c *Comm) send(dst int, m message, copied bool) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d sends to invalid rank %d", c.rank, dst))
	}
	if dst == c.rank {
		panic("mpi: self-send not supported; use local data")
	}
	start := c.now
	if f := c.world.fabric; f != nil {
		// The hop count is rank-pair dependent on the shaped fabrics; on
		// a star this computes exactly the legacy PointToPoint.
		m.arrival = c.now + f.PointToPointRanks(c.rank, dst, m.payloadBytes())
		// The sender's CPU is busy for the software half of the overhead.
		c.now += f.SoftwareOverhead / 2
	} else {
		m.arrival = c.now
	}
	if t := c.world.Tracer; t != nil {
		t.Complete(obs.PidSim, c.rank, "mpi", "send",
			start*1e6, (m.arrival-start)*1e6,
			map[string]any{"dst": dst, "tag": m.tag, "bytes": m.payloadBytes()})
	}
	pb := m.payloadBytes()
	c.bytesSent += int64(pb)
	c.bytesByCtx[c.ctx] += int64(pb)
	c.msgsSent++
	if pb > 0 {
		if copied {
			c.eagerMsgs++
		} else {
			c.rdvMsgs++
		}
	}
	c.world.deliver(c.rank, dst, &m)
	c.world.progress.Add(1)
}

// sendF64 is the typed internal send: owned transfers the buffer
// (rendezvous), otherwise the payload is copied into a pooled buffer
// (eager) and data stays with the caller.
func (c *Comm) sendF64(dst, tag int, data []float64, owned bool) {
	if !owned {
		data = c.pool.copyF64(data)
	}
	c.send(dst, message{tag: tag, f64: data}, !owned)
}

func (c *Comm) sendI64(dst, tag int, data []int64, owned bool) {
	if !owned {
		data = c.pool.copyI64(data)
	}
	c.send(dst, message{tag: tag, i64: data}, !owned)
}

func (c *Comm) sendRaw(dst, tag int, data []byte, owned bool) {
	if !owned {
		data = c.pool.copyBytes(data)
	}
	c.send(dst, message{tag: tag, bytes: data}, !owned)
}

// recv receives the next message from src, which must carry the given
// tag (our codes use deterministic matching), applying the contention
// model and advancing the virtual clock.
func (c *Comm) recv(src, tag int) message {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d receives from invalid rank %d", c.rank, src))
	}
	if c.world.cfg.Event {
		panic(fmt.Sprintf("mpi: rank %d blocking recv on an event-driven world; use TryRecv from a Proc", c.rank))
	}
	s := &c.world.guard[c.rank]
	for {
		// A miss parks under the lock, so the next delivery sees it.
		s.mu.Lock()
		m, ok := c.take(src, tag)
		s.mu.Unlock()
		if ok {
			c.finishRecv(&m, src, tag)
			return m
		}
		select {
		case <-s.wake: // possibly stale: loop and look again
		case <-c.world.stallCh:
			panic(fmt.Sprintf("mpi: watchdog: no progress for %v; rank %d blocked in recv(src=%d, tag=%d); world state: %s",
				c.world.cfg.WatchdogTimeout, c.rank, src, tag, c.world.stallDiag))
		}
	}
}

// take pops the next message from src or, on a miss, records the
// pending receive for deliver's wake check and the deadlock diagnostic.
func (c *Comm) take(src, tag int) (m message, ok bool) {
	ok = c.world.inbox[c.rank].pop(src, c.world.size, &m)
	c.waitPeer.Store(int32(src))
	c.waitTag.Store(int32(tag))
	c.waiting.Store(!ok)
	return m, ok
}

// finishRecv is the shared post-pop accounting for the goroutine and
// event receive paths: progress, tag check, egress-port contention, and
// the arrival clamp — identical arithmetic in both modes.
func (c *Comm) finishRecv(m *message, src, tag int) {
	c.world.progress.Add(1)
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag))
	}
	if f := c.world.fabric; f != nil && f.PortContention {
		if pb := m.payloadBytes(); pb > 0 {
			// Store-and-forward egress port: the final-hop serialization
			// of concurrent senders to this rank happens one message at a
			// time, in the order the rank consumes them.
			ser := f.SerializeTime(pb)
			startTx := m.arrival - ser
			if c.portBusy > startTx {
				startTx = c.portBusy
			}
			arr := startTx + ser
			c.delay += arr - m.arrival
			c.portBusy = arr
			m.arrival = arr
		}
	}
	if m.arrival > c.now {
		c.now = m.arrival
	}
}

// tryRecv is the event-mode receive: it pops the next message from src
// if one is queued (the accounting is finishRecv, same as recv), or
// records the pending operation and reports false so the scheduler
// parks the rank until that sender delivers.
func (c *Comm) tryRecv(src, tag int) (message, bool) {
	if !c.world.cfg.Event {
		// State machines on goroutine worlds degrade to the blocking
		// path, so the same Proc code runs in both modes.
		return c.recv(src, tag), true
	}
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d receives from invalid rank %d", c.rank, src))
	}
	m, ok := c.take(src, tag)
	if ok {
		c.finishRecv(&m, src, tag)
	}
	return m, ok
}

// Send transmits float64 data to dst with a tag. The slice is copied
// (into a pooled buffer), so the caller may reuse it immediately.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.sendF64(dst, tag, data, false)
}

// SendOwned transmits float64 data without copying: ownership of the
// slice transfers to the receiver (the rendezvous path). The caller must
// not touch data afterwards. Pair with AcquireF64 on the sending side
// and ReleaseF64 on the receiving side for an allocation-free exchange.
func (c *Comm) SendOwned(dst, tag int, data []float64) {
	c.sendF64(dst, tag, data, true)
}

// Recv receives float64 data from src; the tag must match the next
// message in FIFO order. The returned slice belongs to the caller, who
// may keep it or recycle it with ReleaseF64.
func (c *Comm) Recv(src, tag int) []float64 {
	return c.recv(src, tag).f64
}

// SendInts transmits int64 data (copied; the caller may reuse it).
func (c *Comm) SendInts(dst, tag int, data []int64) {
	c.sendI64(dst, tag, data, false)
}

// SendIntsOwned transmits int64 data by ownership transfer (no copy).
func (c *Comm) SendIntsOwned(dst, tag int, data []int64) {
	c.sendI64(dst, tag, data, true)
}

// RecvInts receives int64 data; the slice belongs to the caller
// (recyclable with ReleaseI64).
func (c *Comm) RecvInts(src, tag int) []int64 {
	return c.recv(src, tag).i64
}

// SendBytes transmits raw bytes (for encoded structures; copied).
func (c *Comm) SendBytes(dst, tag int, data []byte) {
	c.sendRaw(dst, tag, data, false)
}

// RecvBytes receives raw bytes; the slice belongs to the caller
// (recyclable with ReleaseBytes).
func (c *Comm) RecvBytes(src, tag int) []byte {
	return c.recv(src, tag).bytes
}

// Sendrecv exchanges float64 payloads with a partner without deadlock.
func (c *Comm) Sendrecv(partner, tag int, data []float64) []float64 {
	c.Send(partner, tag, data)
	return c.Recv(partner, tag)
}

// worldMetrics is the World telemetry vocabulary. The byte/message
// counters are per-world totals, so gathering the worlds of a CPU-count
// sweep accumulates traffic across the sweep; the makespan gauge keeps
// the maximum gathered value. Pool, eager/rendezvous and per-collective
// byte counters are deterministic (per-rank pools, summed in rank
// order); the contention-delay timer is virtual time, also
// deterministic.
var worldMetrics = func() []obs.Metric {
	ms := []obs.Metric{
		{Name: "mpi.bytes.total", Kind: obs.KindCounter, Unit: "bytes", Help: "payload bytes sent across all ranks"},
		{Name: "mpi.messages.total", Kind: obs.KindCounter, Help: "messages sent across all ranks"},
		{Name: "mpi.time.max", Kind: obs.KindGauge, Unit: "s", Help: "parallel makespan: max rank virtual clock"},
		{Name: "mpi.ranks", Kind: obs.KindGauge, Help: "world size of the last gathered world"},
		{Name: "mpi.pool.hits", Kind: obs.KindCounter, Help: "payload buffers served from the per-rank pools"},
		{Name: "mpi.pool.misses", Kind: obs.KindCounter, Help: "payload buffers freshly allocated"},
		{Name: "mpi.msgs.eager", Kind: obs.KindCounter, Help: "payload messages sent by eager copy"},
		{Name: "mpi.msgs.rendezvous", Kind: obs.KindCounter, Help: "payload messages sent by ownership transfer"},
		{Name: "mpi.contention.delay", Kind: obs.KindTimer, Unit: "s", Help: "virtual seconds messages waited for contended ports"},
	}
	for k := 0; k < numCtx; k++ {
		ms = append(ms, obs.Metric{
			Name: "mpi.bytes." + ctxNames[k], Kind: obs.KindCounter, Unit: "bytes",
			Help: "payload bytes sent inside " + ctxNames[k] + " operations",
		})
	}
	return ms
}()

// Describe implements obs.Source.
func (w *World) Describe() []obs.Metric { return worldMetrics }

// Collect implements obs.Source: the deprecated-but-kept accessors
// MaxTime/TotalBytes/TotalMessages remain thin views over the same
// numbers. Call after Run.
func (w *World) Collect(s *obs.Snapshot) {
	s.AddCounter("mpi.bytes.total", "bytes", "payload bytes sent across all ranks", uint64(w.TotalBytes()))
	s.AddCounter("mpi.messages.total", "", "messages sent across all ranks", uint64(w.TotalMessages()))
	s.MaxGauge("mpi.time.max", "s", "parallel makespan: max rank virtual clock", w.MaxTime())
	s.SetGauge("mpi.ranks", "", "world size of the last gathered world", float64(w.size))
	var hits, misses, eager, rdv int64
	var delay float64
	var byCtx [numCtx]int64
	for _, c := range w.comms {
		hits += c.pool.hits
		misses += c.pool.misses
		eager += c.eagerMsgs
		rdv += c.rdvMsgs
		delay += c.delay
		for k := 0; k < numCtx; k++ {
			byCtx[k] += c.bytesByCtx[k]
		}
	}
	s.AddCounter("mpi.pool.hits", "", "payload buffers served from the per-rank pools", uint64(hits))
	s.AddCounter("mpi.pool.misses", "", "payload buffers freshly allocated", uint64(misses))
	s.AddCounter("mpi.msgs.eager", "", "payload messages sent by eager copy", uint64(eager))
	s.AddCounter("mpi.msgs.rendezvous", "", "payload messages sent by ownership transfer", uint64(rdv))
	s.AddTimer("mpi.contention.delay", "virtual seconds messages waited for contended ports", delay)
	for k := 0; k < numCtx; k++ {
		s.AddCounter("mpi.bytes."+ctxNames[k], "bytes",
			"payload bytes sent inside "+ctxNames[k]+" operations", uint64(byCtx[k]))
	}
}
