package sim

// Queue is a FIFO ring buffer. PushBack and PopFront are O(1); RemoveAt
// takes an element out of the middle in O(min(i, Len-i)) moves and keeps
// the order of the rest, which is what MX matching needs (the earliest
// posted matching receive wins).
//
// The backing array has a power-of-two length, so positions wrap with a
// mask. It doubles when full and never shrinks, so a queue that has reached
// its working depth allocates nothing more. Vacated slots are zeroed, so a
// dequeued frame or descriptor is not kept reachable by the queue.
//
// The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index in buf of the front element
	n    int // number of queued elements
}

// minQueueCap is the backing length of a queue's first allocation.
const minQueueCap = 8

// Len returns the number of queued elements.
//
//omxlint:hotpath
func (q *Queue[T]) Len() int { return q.n }

// At returns the i-th element from the front; At(0) is the front.
//
//omxlint:hotpath
func (q *Queue[T]) At(i int) T {
	if uint(i) >= uint(q.n) {
		panic("sim: Queue.At index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// PushBack appends v at the back of the queue.
//
//omxlint:hotpath
func (q *Queue[T]) PushBack(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PopFront removes and returns the front element.
//
//omxlint:hotpath
func (q *Queue[T]) PopFront() T {
	if q.n == 0 {
		panic("sim: Queue.PopFront on empty queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// RemoveAt removes and returns the i-th element from the front, keeping
// the order of the others. It shifts whichever side of i is shorter by one
// slot toward the gap.
//
//omxlint:hotpath
func (q *Queue[T]) RemoveAt(i int) T {
	if uint(i) >= uint(q.n) {
		panic("sim: Queue.RemoveAt index out of range")
	}
	var zero T
	mask := len(q.buf) - 1
	v := q.buf[(q.head+i)&mask]
	if i < q.n-1-i {
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.buf[q.head] = zero
		q.head = (q.head + 1) & mask
	} else {
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
		q.buf[(q.head+q.n-1)&mask] = zero
	}
	q.n--
	return v
}

// grow doubles the backing array, unwrapping the elements to its start.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), minQueueCap))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf = buf
	q.head = 0
}
