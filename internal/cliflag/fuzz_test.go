package cliflag

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzGridSpec feeds arbitrary sweep request bodies through the path
// omxserve takes: a strict JSON decode (unknown fields refused) into a
// GridSpec, then Grid(). Either step may reject the body, but neither may
// panic or hang, and an accepted grid must have a canonical form that is
// idempotent and encodes as JSON (the service's cache key), and at least
// one point.
func FuzzGridSpec(f *testing.F) {
	f.Add([]byte(`{"strategies":"timeout,openmx","delays":"0:60:30","sizes":"1,4096","burst":"1","iters":5}`))
	f.Add([]byte(`{"drop":"NaN","burst":"Inf"}`))
	for _, bad := range badDelays {
		body, _ := json.Marshal(GridSpec{Delays: bad})
		f.Add(body)
	}
	// 4096 delays times seven 256-value axes is 2^68 points.
	axis := strings.TrimSuffix(strings.Repeat("1,", 256), ",")
	body, _ := json.Marshal(GridSpec{Delays: "0:4095:1", Sizes: axis, Queues: axis,
		Nodes: axis, Bg: axis, Seeds: axis, Drop: strings.ReplaceAll(axis, "1", "0"), Burst: axis})
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec GridSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		g, err := spec.Grid()
		if err != nil {
			return
		}
		c := g.Canonical()
		if !reflect.DeepEqual(c, c.Canonical()) {
			t.Fatalf("Canonical not idempotent for %s:\n%+v\n%+v", body, c, c.Canonical())
		}
		if _, err := json.Marshal(c); err != nil {
			t.Fatalf("canonical grid of %s does not encode: %v", body, err)
		}
		if n := g.Size(); n < 1 {
			t.Fatalf("Size() = %d for %s", n, body)
		}
	})
}
