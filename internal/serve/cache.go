package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ResultsVersion is the code-version component of every cache key. It
// must be bumped whenever a change alters simulator output for the same
// spec (new Result fields, changed event ordering, new defaults) — the
// old entries then simply stop matching and age out, instead of serving
// stale bytes as if they were fresh execution. Execution-shape changes
// that provably do not alter output (worker count, parallelism) must NOT
// bump it; the differential CI jobs are the proof.
const ResultsVersion = "omxsim-r11"

// entryMagic versions the on-disk entry layout itself (header format),
// independent of the simulator semantics ResultsVersion tracks.
const entryMagic = "omxcache1"

// Cache is a crash-safe, content-addressed result cache: payloads are
// stored whole under their spec's key, written via temp-file + rename so
// a crash mid-write (power cut, kill -9) can never leave a partially
// visible entry, and every read re-verifies a per-entry SHA-256 before a
// byte is served. Entries that fail verification — truncated by a crash,
// bit-flipped by the disk — are quarantined, not deleted and never
// served; the subsequent miss makes the caller re-execute.
//
// A nil *Cache is valid and caches nothing: Get always misses, Put is a
// no-op. The CLIs use that for "no -cache-dir".
type Cache struct {
	dir     string
	version string

	// writeMu serializes Put's temp-file dance per process; cross-process
	// safety comes from rename atomicity, not this lock.
	writeMu sync.Mutex

	hits, misses, puts, quarantined atomic.Uint64
	recoveredQuarantined            int
	scanned                         int
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined"`
	// ScanQuarantined and Scanned describe the startup recovery scan:
	// how many entries the scan inspected and how many it quarantined.
	Scanned         int `json:"scanned"`
	ScanQuarantined int `json:"scan_quarantined"`
}

// OpenCache opens (creating if needed) the cache rooted at dir and runs
// the startup recovery scan: leftover temp files from interrupted writes
// are deleted, and every committed entry is verified — truncated or
// corrupt ones move to dir/quarantine/ for post-mortem instead of ever
// being served. The scan makes restart-after-kill -9 safe by
// construction: whatever state the crash left, the surviving entries all
// verify.
func OpenCache(dir, version string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating cache directory: %w", err)
	}
	c := &Cache{dir: dir, version: version}

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning cache directory: %w", err)
	}
	// Deterministic scan order (ReadDir sorts, but be explicit: the scan
	// log and quarantine numbering should not depend on the filesystem).
	sorted := make([]string, 0, len(names))
	for _, e := range names {
		if !e.IsDir() {
			sorted = append(sorted, e.Name())
		}
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, tmpPrefix) {
			// An interrupted Put: the entry was never committed, so the
			// fragment carries no information worth quarantining.
			os.Remove(path)
			continue
		}
		if !strings.HasSuffix(name, entrySuffix) {
			continue // not ours; leave foreign files alone
		}
		c.scanned++
		key := strings.TrimSuffix(name, entrySuffix)
		if _, err := readEntry(path, key); err != nil {
			if qerr := c.quarantine(path); qerr != nil {
				return nil, fmt.Errorf("serve: quarantining corrupt entry %s: %v (verify error: %w)", name, qerr, err)
			}
			c.recoveredQuarantined++
		}
	}
	return c, nil
}

const (
	tmpPrefix   = ".tmp-"
	entrySuffix = ".res"
)

// Key content-addresses a spec: SHA-256 over the cache's code version,
// the job kind, and the spec's canonical JSON. Callers pass the
// *canonical* form (sweep.Grid.Canonical, tune.Spec.Canonical) so
// equivalent spellings of one workload collide on one key and
// machine-shape knobs never reach it.
func (c *Cache) Key(kind string, spec any) (string, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return "", fmt.Errorf("serve: canonicalizing %s spec: %w", kind, err)
	}
	h := sha256.New()
	version := ResultsVersion
	if c != nil {
		version = c.version
	}
	fmt.Fprintf(h, "%s\x00%s\x00", version, kind)
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Get returns the payload stored under key. ok is false on a miss — and
// on a corrupt entry, which is quarantined on the way out so the
// fallback re-execution can repopulate the slot.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	path := c.entryPath(key)
	payload, err := readEntry(path, key)
	if err != nil {
		if !os.IsNotExist(err) {
			// Committed but unreadable/corrupt: never serve it, keep the
			// evidence.
			if c.quarantine(path) == nil {
				c.quarantined.Add(1)
			}
		}
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return payload, true
}

// Put commits payload under key atomically: temp file in the same
// directory, fsync, rename. A crash at any instant leaves either the old
// state or the complete new entry — never a torn one — and the startup
// scan sweeps the temp fragment.
func (c *Cache) Put(key string, payload []byte) error {
	if c == nil {
		return nil
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()

	f, err := os.CreateTemp(c.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: cache write: %w", err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s %s %d\n", entryMagic, key, hex.EncodeToString(sum[:]), len(payload))
	if _, err := f.WriteString(header); err != nil {
		return cleanup(err)
	}
	if _, err := f.Write(payload); err != nil {
		return cleanup(err)
	}
	// fsync before rename: the rename must never become visible ahead of
	// the data it names.
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: cache write: %w", err)
	}
	if err := os.Rename(tmp, c.entryPath(key)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: cache commit: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Puts:            c.puts.Load(),
		Quarantined:     c.quarantined.Load(),
		Scanned:         c.scanned,
		ScanQuarantined: c.recoveredQuarantined,
	}
}

// Dir returns the cache root ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// quarantine moves a corrupt entry aside under a non-colliding name.
func (c *Cache) quarantine(path string) error {
	base := filepath.Base(path)
	for i := 0; ; i++ {
		dst := filepath.Join(c.dir, "quarantine", base)
		if i > 0 {
			dst += "." + strconv.Itoa(i)
		}
		if _, err := os.Lstat(dst); err == nil {
			continue
		}
		return os.Rename(path, dst)
	}
}

// readEntry loads and fully verifies one entry: magic, key match against
// the filename, payload length, and payload SHA-256. Any mismatch is an
// error; the caller decides between miss and quarantine.
func readEntry(path, wantKey string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("entry %s: truncated header", filepath.Base(path))
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 4 || fields[0] != entryMagic {
		return nil, fmt.Errorf("entry %s: malformed header", filepath.Base(path))
	}
	if fields[1] != wantKey {
		return nil, fmt.Errorf("entry %s: key mismatch (header %s)", filepath.Base(path), fields[1])
	}
	wantLen, err := strconv.Atoi(fields[3])
	if err != nil {
		return nil, fmt.Errorf("entry %s: bad length field: %v", filepath.Base(path), err)
	}
	payload := raw[nl+1:]
	if len(payload) != wantLen {
		return nil, fmt.Errorf("entry %s: payload %d bytes, header says %d (truncated write?)", filepath.Base(path), len(payload), wantLen)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != fields[2] {
		return nil, fmt.Errorf("entry %s: checksum mismatch (bit rot?)", filepath.Base(path))
	}
	return payload, nil
}
