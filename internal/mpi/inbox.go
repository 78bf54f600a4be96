package mpi

import "sync"

// The message store both schedulers share (DESIGN.md §11): one inbox
// per rank, one FIFO lane per sender, created on first use, so host
// memory follows the rank pairs that talk. Sends never block.

// sparseLanes is how many senders an inbox tracks as an inline list
// before it switches to a table indexed by src. Binomial trees and
// dissemination barriers stay under it even at p=4096; an alltoall
// pays for the table.
const sparseLanes = 16

// slot holds one queued message. A rank's lanes link through one slot
// arena (next is a slot index+1, 0 ends a list) and drained slots go on
// a free list, so the arena grows only to the rank's peak backlog.
type slot struct {
	m    message
	next int32
}

// fifo is one (src → dst) lane: its first and last slot, index+1. Only
// sparse lanes use src.
type fifo struct{ src, head, tail int32 }

// inbox is one rank's store: sparse lanes in first-use order or, past
// sparseLanes senders, a dense table indexed by src (lanes is then nil).
type inbox struct {
	slots []slot
	free  int32
	lanes []fifo
	dense []fifo
}

// lane returns the lane from src, creating it on first use; size is the
// world size, the dense table's length.
func (b *inbox) lane(src, size int) *fifo {
	if b.dense != nil {
		return &b.dense[src]
	}
	for i := range b.lanes {
		if int(b.lanes[i].src) == src {
			return &b.lanes[i]
		}
	}
	if len(b.lanes) < sparseLanes {
		b.lanes = append(b.lanes, fifo{src: int32(src)})
		return &b.lanes[len(b.lanes)-1]
	}
	b.dense = make([]fifo, size)
	for _, l := range b.lanes {
		b.dense[l.src] = l
	}
	b.lanes = nil
	return &b.dense[src]
}

// push appends m to the lane from src.
func (b *inbox) push(src, size int, m *message) {
	q := b.lane(src, size)
	i := b.free
	if i > 0 {
		b.free = b.slots[i-1].next
	} else {
		b.slots = append(b.slots, slot{})
		i = int32(len(b.slots))
	}
	b.slots[i-1] = slot{m: *m}
	if q.head == 0 {
		q.head = i
	} else {
		b.slots[q.tail-1].next = i
	}
	q.tail = i
}

// pop moves the oldest message from src into m, if one is queued.
func (b *inbox) pop(src, size int, m *message) bool {
	q := b.lane(src, size)
	i := q.head
	if i == 0 {
		return false
	}
	s := &b.slots[i-1]
	*m, q.head = s.m, s.next
	s.m, s.next = message{}, b.free // drop payload references
	b.free = i
	return true
}

// rankSync guards a goroutine-mode inbox: mu orders senders against the
// owner, and wake (one slot) is signalled when a message lands from the
// sender a parked recv waits on. Event worlds do not allocate it.
type rankSync struct {
	mu   sync.Mutex
	wake chan struct{}
}

// deliver appends m to dst's lane from src and wakes dst if it is
// parked waiting on exactly this sender.
func (w *World) deliver(src, dst int, m *message) {
	d := w.comms[dst]
	if w.guard == nil {
		w.inbox[dst].push(src, w.size, m)
		if d.waiting.Load() && int(d.waitPeer.Load()) == src {
			w.sched.wake(dst)
		}
		return
	}
	s := &w.guard[dst]
	s.mu.Lock()
	w.inbox[dst].push(src, w.size, m)
	wake := d.waiting.Load() && int(d.waitPeer.Load()) == src
	s.mu.Unlock()
	if wake {
		select {
		case s.wake <- struct{}{}:
		default: // a wake is already pending
		}
	}
}
