package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzTuneRequest feeds arbitrary tune request bodies through the path
// handleTune takes: decodeBody's strict JSON decode (unknown fields
// refused), then TuneRequest.Spec(). Either step may reject the body, but
// neither may panic or hang, and an accepted spec's canonical form — the
// service's cache key — must be idempotent and encode as JSON.
func FuzzTuneRequest(f *testing.F) {
	f.Add([]byte(`{"strategies":"timeout,openmx","delays":"0:60:15","budget":8,"iters":4}`))
	f.Add([]byte(`{"delays":"9223372036854775000:9223372036854775807:1000"}`))
	f.Add([]byte(`{"bg":-1,"nodes":1,"size":-1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req TuneRequest
		if err := decodeBody(httptest.NewRequest("POST", "/v1/tune", bytes.NewReader(body)), &req); err != nil {
			return
		}
		spec, err := req.Spec()
		if err != nil {
			return
		}
		c := spec.Canonical()
		if !reflect.DeepEqual(c, c.Canonical()) {
			t.Fatalf("Canonical not idempotent for %s:\n%+v\n%+v", body, c, c.Canonical())
		}
		if _, err := json.Marshal(c); err != nil {
			t.Fatalf("canonical spec of %s does not encode: %v", body, err)
		}
	})
}
