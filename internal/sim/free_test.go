package sim

import "testing"

// freeRecord has a field of every kind the simulator's recycled records
// carry: scalars, pointers, callbacks, interfaces and slices.
type freeRecord struct {
	n    int
	at   Time
	ok   bool
	ptr  *int
	fn   func(any)
	arg  any
	data []byte
}

func (r *freeRecord) isZero() bool {
	return r.n == 0 && r.at == 0 && !r.ok && r.ptr == nil &&
		r.fn == nil && r.arg == nil && r.data == nil
}

func TestFreeListGetFromEmptyIsZero(t *testing.T) {
	var l FreeList[freeRecord]
	r := l.Get()
	if r == nil {
		t.Fatal("Get on an empty list returned nil")
	}
	if !r.isZero() {
		t.Errorf("Get on an empty list returned %+v, want the zero record", *r)
	}
	if r2 := l.Get(); r2 == r {
		t.Error("two Gets on an empty list returned the same record")
	}
}

func TestFreeListPutZeroesEveryField(t *testing.T) {
	var l FreeList[freeRecord]
	r := l.Get()
	x := 7
	*r = freeRecord{
		n: 3, at: 5 * Microsecond, ok: true, ptr: &x,
		fn: func(any) {}, arg: &x, data: make([]byte, 4),
	}
	l.Put(r)
	if !r.isZero() {
		t.Errorf("Put left fields set: n %d, at %v, ok %v, ptr %v, fn set %v, arg %v, data %v",
			r.n, r.at, r.ok, r.ptr, r.fn != nil, r.arg, r.data)
	}
}

func TestFreeListReuseIsLIFO(t *testing.T) {
	var l FreeList[freeRecord]
	a, b := l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Error("Get did not return the record put last")
	}
	if got := l.Get(); got != a {
		t.Error("second Get did not return the record put first")
	}
	if n := len(l.free); n != 0 {
		t.Errorf("list holds %d records after taking back both", n)
	}
}

func TestFreeListZeroAllocSteadyState(t *testing.T) {
	var l FreeList[freeRecord]
	for range 4 {
		l.Put(l.Get())
	}
	x := 1
	if n := testing.AllocsPerRun(1000, func() {
		r := l.Get()
		r.ptr, r.arg = &x, &x
		l.Put(r)
	}); n != 0 {
		t.Errorf("warmed Get+Put: %v allocs/op, want 0", n)
	}
}
