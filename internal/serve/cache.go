package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"ttastartup/internal/jsonl"
)

// cache is the content-addressed verdict store: one JSON file per unit
// result under <dir>/<key[:2]>/<key>.json, written atomically
// (tmp + rename) so a crash never leaves a torn entry. Keys are the
// SHA-256 content addresses built in spec.go, so a hit is valid for any
// job — past, present, or from a different submission — whose unit has
// the same (model, lemma, engine, config) or (mcfi spec, batch) content.
type cache struct {
	dir string
}

// cacheEntry is the on-disk envelope. Exactly one of Record/BatchRecord
// is set, matching Kind. Stats (added with journal v2; absent in older
// entries) is the span-stripped profile of the execution that produced
// the verdict, so a warm hit can report the cost it saved.
type cacheEntry struct {
	Key         string           `json:"key"`
	Kind        string           `json:"kind"`
	Record      *json.RawMessage `json:"record,omitempty"`
	BatchRecord *json.RawMessage `json:"batch_record,omitempty"`
	Stats       *UnitStats       `json:"stats,omitempty"`
}

func openCache(dir string) (*cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &cache{dir: dir}, nil
}

func (c *cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// get loads the entry for key; ok is false on a miss. A torn or
// undecodable entry (impossible under the atomic writer, but cheap to
// tolerate) reads as a miss.
func (c *cache) get(key string) (cacheEntry, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return cacheEntry{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		return cacheEntry{}, false
	}
	return e, true
}

// put stores an entry atomically. Concurrent writers of the same key are
// harmless: content addressing makes every writer's payload identical.
func (c *cache) put(e cacheEntry) error {
	if len(e.Key) < 2 {
		return fmt.Errorf("serve: malformed cache key %q", e.Key)
	}
	dir := filepath.Dir(c.path(e.Key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return jsonl.WriteAtomic(c.path(e.Key), data)
}

// len counts stored entries (test and metrics helper).
func (c *cache) len() (int, error) {
	n := 0
	err := filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		err = nil
	}
	return n, err
}
