// The content-addressed result cache: a directory of files named by
// cache key (the SHA-256 from Spec.CacheKey), written atomically via
// temp-file + rename so a crash mid-write can never leave a torn entry
// that a later Get would serve. The cache is shared state between farm
// generations — a restarted farm hits entries its predecessor wrote.
package farm

import (
	"fmt"
	"os"
	"path/filepath"
)

// Cache is the on-disk content-addressed store. Safe for concurrent use:
// writes are atomic renames and entries are immutable once present.
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and opens the store rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// path maps a key to its entry file.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".bin")
}

// Get returns the cached result bytes for key, or ok=false on a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	return b, true
}

// open opens the entry for key, to be read in place. Entries are
// immutable once renamed into place, so the file stays whole while open.
func (c *Cache) open(key string) (*os.File, error) {
	return os.Open(c.path(key))
}

// Put stores result bytes under key, atomically. A concurrent Put of the
// same key is harmless: both writers hold identical bytes (the key is a
// content address), and rename is atomic, so readers see one of them.
//
// Put fsyncs whatever the journal's sync setting: a done record
// journaled after it must never name a result that a power loss undid.
func (c *Cache) Put(key string, result []byte) error {
	if err := replaceFile(c.path(key), result, true); err != nil {
		return fmt.Errorf("farm: cache put: %w", err)
	}
	return nil
}

// replaceFile atomically replaces path with data: it writes a temp file
// beside path and renames it into place, so readers see the old or the
// new contents, never a torn mix. With sync set, the temp file is
// fsynced before the rename and the directory after it, so a power loss
// cannot undo the replacement either.
func replaceFile(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil && sync {
		err = syncDir(dir)
	}
	return err
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Len counts the entries currently in the store.
func (c *Cache) Len() int {
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".bin" {
			n++
		}
	}
	return n
}
