package sim

// FreeList recycles the per-packet records of one component: NIC
// completion-ring descriptors, a core's user tasks and IRQ items, and the
// Open-MX stack's events, send operations, transmit and dispatch records.
// Get pops the most recently recycled record (LIFO, so the next use finds
// it warm in cache) or allocates a zero one; Put zeroes the record, so the
// list never keeps reachable what it referenced, then pushes it. Callers
// fill in every field they need after Get.
//
// A FreeList is not safe for concurrent use. Each list belongs to one
// component, which runs on one engine (one shard under the sharded
// runtime), so no lock is needed.
//
// Two recycled records keep their own lists. wire.Pool frames are
// reference-counted, shared across shards behind a mutex, and counted for
// conservation checks (Pool.Outstanding). The engine threads its free
// events through Event.next, which keeps an Event at one cache line.
//
// The zero value is an empty list ready to use.
type FreeList[T any] struct {
	free []*T
}

// Get returns a recycled record, or a newly allocated zero one.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		r := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return r
	}
	return new(T)
}

// Put zeroes r and keeps it for the next Get. r must not be used after.
func (l *FreeList[T]) Put(r *T) {
	var zero T
	*r = zero
	l.free = append(l.free, r)
}
