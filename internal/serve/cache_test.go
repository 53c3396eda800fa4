package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openmxsim/internal/sweep"
)

func openTestCache(t *testing.T) *Cache {
	t.Helper()
	c, err := OpenCache(t.TempDir(), ResultsVersion)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	return c
}

func TestCachePutGetRoundtrip(t *testing.T) {
	c := openTestCache(t)
	key, err := c.Key("sweep", sweep.Grid{Iters: 5}.Canonical())
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("Get on empty cache reported a hit")
	}
	payload := []byte(`[{"latency_ns":1234}]` + "\n")
	if err := c.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mutated through the cache:\nput %q\ngot %q", payload, got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / 0 quarantined", st)
	}
}

func TestCacheNilIsNoop(t *testing.T) {
	var c *Cache
	key, err := c.Key("sweep", sweep.Grid{}.Canonical())
	if err != nil || key == "" {
		t.Fatalf("nil cache Key: %q, %v", key, err)
	}
	if err := c.Put(key, []byte("x")); err != nil {
		t.Fatalf("nil cache Put: %v", err)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("nil cache claimed a hit")
	}
	if c.Stats() != (CacheStats{}) || c.Dir() != "" {
		t.Fatal("nil cache leaked state")
	}
}

func TestCacheKeySeparatesVersionKindSpec(t *testing.T) {
	c := openTestCache(t)
	g1 := sweep.Grid{Iters: 5}.Canonical()
	g2 := sweep.Grid{Iters: 6}.Canonical()
	k1, _ := c.Key("sweep", g1)
	k2, _ := c.Key("sweep", g2)
	k3, _ := c.Key("tune", g1)
	if k1 == k2 {
		t.Fatal("different specs share a key")
	}
	if k1 == k3 {
		t.Fatal("different kinds share a key")
	}
	old, err := OpenCache(c.Dir(), "omxsim-r0")
	if err != nil {
		t.Fatalf("OpenCache old version: %v", err)
	}
	k4, _ := old.Key("sweep", g1)
	if k1 == k4 {
		t.Fatal("different code versions share a key — stale results would survive upgrades")
	}
}

func corruptEntry(t *testing.T, c *Cache, key string, mutate func([]byte) []byte) {
	t.Helper()
	path := c.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading entry to corrupt: %v", err)
	}
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatalf("writing corrupted entry: %v", err)
	}
}

func quarantineCount(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatalf("reading quarantine: %v", err)
	}
	return len(ents)
}

// TestCacheTruncatedEntryQuarantined is the kill -9-mid-write story:
// a torn payload must never be served; it is quarantined, the Get
// misses, and re-execution repopulates the slot with good bytes.
func TestCacheTruncatedEntryQuarantined(t *testing.T) {
	c := openTestCache(t)
	key, _ := c.Key("sweep", sweep.Grid{Iters: 5}.Canonical())
	payload := []byte(strings.Repeat("result-bytes ", 64))
	if err := c.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	corruptEntry(t, c, key, func(raw []byte) []byte { return raw[:len(raw)-7] })

	if _, ok := c.Get(key); ok {
		t.Fatal("truncated entry was served")
	}
	if n := quarantineCount(t, c.Dir()); n != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", n)
	}
	if st := c.Stats(); st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	// Fallback re-execution path: Put again, Get serves the fresh bytes.
	if err := c.Put(key, payload); err != nil {
		t.Fatalf("re-Put after quarantine: %v", err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("re-populated entry not served byte-identically")
	}
}

// TestCacheBitFlipQuarantined covers silent corruption: length intact,
// one payload bit flipped — only the checksum can catch it.
func TestCacheBitFlipQuarantined(t *testing.T) {
	c := openTestCache(t)
	key, _ := c.Key("sweep", sweep.Grid{Iters: 7}.Canonical())
	if err := c.Put(key, []byte(`{"knee_delay_ns":75000}`+"\n")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	corruptEntry(t, c, key, func(raw []byte) []byte {
		raw[len(raw)-3] ^= 0x40 // flip a bit deep in the payload
		return raw
	})
	if _, ok := c.Get(key); ok {
		t.Fatal("bit-flipped entry was served")
	}
	if n := quarantineCount(t, c.Dir()); n != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", n)
	}
}

// TestCacheStartupScan replays a crashed process's leavings: a stray
// temp fragment (interrupted Put), a truncated committed entry, and a
// healthy one. Recovery must sweep the fragment, quarantine the corpse,
// and keep serving the survivor.
func TestCacheStartupScan(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, ResultsVersion)
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	goodKey, _ := c.Key("sweep", sweep.Grid{Iters: 5}.Canonical())
	badKey, _ := c.Key("sweep", sweep.Grid{Iters: 9}.Canonical())
	goodPayload := []byte("good result\n")
	if err := c.Put(goodKey, goodPayload); err != nil {
		t.Fatalf("Put good: %v", err)
	}
	if err := c.Put(badKey, []byte("doomed result\n")); err != nil {
		t.Fatalf("Put bad: %v", err)
	}
	corruptEntry(t, c, badKey, func(raw []byte) []byte { return raw[:len(raw)/2] })
	tmp := filepath.Join(dir, tmpPrefix+"crashed-write")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatalf("planting temp fragment: %v", err)
	}

	// "Restart" the server: reopen over the same directory.
	c2, err := OpenCache(dir, ResultsVersion)
	if err != nil {
		t.Fatalf("OpenCache after crash: %v", err)
	}
	if _, err := os.Lstat(tmp); !os.IsNotExist(err) {
		t.Fatal("interrupted-write fragment survived recovery")
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Fatalf("quarantine holds %d entries after scan, want 1", n)
	}
	st := c2.Stats()
	if st.Scanned != 2 || st.ScanQuarantined != 1 {
		t.Fatalf("scan stats = %+v, want Scanned 2 / ScanQuarantined 1", st)
	}
	if _, ok := c2.Get(badKey); ok {
		t.Fatal("quarantined entry still served after recovery")
	}
	got, ok := c2.Get(goodKey)
	if !ok || !bytes.Equal(got, goodPayload) {
		t.Fatal("healthy entry lost during recovery")
	}
}

// TestCacheQuarantineNameCollision: quarantining the same key twice
// must keep both corpses.
func TestCacheQuarantineNameCollision(t *testing.T) {
	c := openTestCache(t)
	key, _ := c.Key("sweep", sweep.Grid{Iters: 5}.Canonical())
	for i := 0; i < 2; i++ {
		if err := c.Put(key, []byte("payload\n")); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		corruptEntry(t, c, key, func(raw []byte) []byte { return raw[:3] })
		if _, ok := c.Get(key); ok {
			t.Fatalf("corrupt entry %d served", i)
		}
	}
	if n := quarantineCount(t, c.Dir()); n != 2 {
		t.Fatalf("quarantine holds %d entries, want 2 (collision overwrote evidence?)", n)
	}
}
