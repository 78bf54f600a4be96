package mpi

import "fmt"

// The event-driven rank scheduler. Goroutine-per-rank caps practical
// world sizes around a few hundred ranks (a host stack per rank). Here
// ranks are resumable state machines (Proc) dispatched from a min-heap
// keyed on the virtual clock; a blocked receive parks the rank until
// its sender delivers. Dispatch order cannot change results: each
// rank consumes messages in its own program order (tryRecv pops the
// per-sender FIFO), and the contention model's port horizon advances
// in exactly that order, so virtual times, results and counters are
// bit-identical to World.Run.

// Proc is a resumable rank program for RunEvent. Resume advances the
// rank as far as it can and returns done=true when the program is
// complete. Returning done=false means the rank is parked on a
// pending receive (a TryRecv that reported false); the scheduler
// resumes it after the awaited sender delivers. A Proc that returns
// false without a pending receive is never resumed again and shows up
// in the deadlock diagnostic.
type Proc interface {
	Resume(c *Comm) (done bool, err error)
}

// ProcFunc adapts a function to the Proc interface.
type ProcFunc func(c *Comm) (bool, error)

// Resume implements Proc.
func (f ProcFunc) Resume(c *Comm) (bool, error) { return f(c) }

// evScheduler is the ready-rank min-heap, keyed (virtual clock, rank)
// so dispatch is deterministic; the key is a policy choice only —
// any order yields bit-identical results (see the package comment).
type evScheduler struct {
	w      *World
	heap   []int
	inHeap []bool
}

func (s *evScheduler) less(a, b int) bool {
	na, nb := s.w.comms[a].now, s.w.comms[b].now
	return na < nb || (na == nb && a < b)
}

func (s *evScheduler) wake(rank int) {
	if s.inHeap[rank] {
		return
	}
	s.inHeap[rank] = true
	s.heap = append(s.heap, rank)
	s.up(len(s.heap) - 1)
}

func (s *evScheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[i], s.heap[parent]) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *evScheduler) pop() int {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	if last > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && s.less(s.heap[l], s.heap[small]) {
				small = l
			}
			if r < last && s.less(s.heap[r], s.heap[small]) {
				small = r
			}
			if small == i {
				break
			}
			s.heap[i], s.heap[small] = s.heap[small], s.heap[i]
			i = small
		}
	}
	s.inHeap[top] = false
	return top
}

// EventMode reports whether this world runs the event-driven
// scheduler (drive it with RunEvent) instead of goroutine ranks.
func (w *World) EventMode() bool { return w.cfg.Event }

// resumeProc wraps one dispatch so a panicking rank is converted into
// an error naming it, exactly as the goroutine path does.
func resumeProc(p Proc, c *Comm) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("mpi: rank %d panicked: %v", c.rank, r)
		}
	}()
	return p.Resume(c)
}

// RunEvent executes one Proc per rank on the event loop and waits for
// completion. mk is called once per rank, in rank order, to build its
// state machine. The first rank error (or panic, converted) aborts
// the run. An empty ready heap with unfinished ranks is a deadlock:
// RunEvent returns the same per-rank pending-op diagnostic the
// goroutine watchdog produces — and the wall-clock watchdog stays
// armed as a safety net against a stuck (livelocked) event loop.
func (w *World) RunEvent(mk func(c *Comm) Proc) error {
	if !w.cfg.Event {
		return fmt.Errorf("mpi: RunEvent on a goroutine-mode world (set Config.Event)")
	}
	defer w.armWatchdog()()
	procs := make([]Proc, w.size)
	for r := range procs {
		procs[r] = mk(w.comms[r])
	}
	sched := &evScheduler{
		w:      w,
		heap:   make([]int, 0, w.size),
		inHeap: make([]bool, w.size),
	}
	w.sched = sched
	defer func() { w.sched = nil }()
	for r := 0; r < w.size; r++ {
		sched.wake(r)
	}
	finished := 0
	done := make([]bool, w.size)
	for len(sched.heap) > 0 {
		if w.stallCh != nil {
			select {
			case <-w.stallCh:
				return fmt.Errorf("mpi: watchdog: no progress for %v; event loop stalled; world state: %s",
					w.cfg.WatchdogTimeout, w.stallDiag)
			default:
			}
		}
		r := sched.pop()
		if done[r] {
			continue
		}
		fin, err := resumeProc(procs[r], w.comms[r])
		if err != nil {
			return err
		}
		if fin {
			done[r] = true
			w.comms[r].waiting.Store(false)
			finished++
		}
	}
	if finished < w.size {
		return fmt.Errorf("mpi: deadlock: %d of %d ranks blocked with no deliverable message; world state: %s",
			w.size-finished, w.size, w.describeRanks())
	}
	return nil
}

// TryRecvF64 is the event-mode receive for external state machines:
// the payload from src if one is queued (owned by the caller, as
// Recv), or ok=false after recording the pending operation — return
// from Resume and retry on the next dispatch. On a goroutine-mode
// world it blocks like Recv and always reports ok=true, so the same
// Proc code runs under either scheduler.
func (c *Comm) TryRecvF64(src, tag int) (data []float64, ok bool) {
	m, ok := c.tryRecv(src, tag)
	if !ok {
		return nil, false
	}
	return m.f64, true
}

// TryRecvI64 is TryRecvF64 for int64 payloads.
func (c *Comm) TryRecvI64(src, tag int) (data []int64, ok bool) {
	m, ok := c.tryRecv(src, tag)
	if !ok {
		return nil, false
	}
	return m.i64, true
}

// TryRecvBytes is TryRecvF64 for raw byte payloads.
func (c *Comm) TryRecvBytes(src, tag int) (data []byte, ok bool) {
	m, ok := c.tryRecv(src, tag)
	if !ok {
		return nil, false
	}
	return m.bytes, true
}
