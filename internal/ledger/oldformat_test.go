package ledger

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// olderLayouts is the table of ledgers earlier revisions left, one directory
// each under testdata/older, holding the -ledger path "led" and whatever
// lies beside it: a single JSON-lines file, the .migrating file an
// interrupted upgrade set aside, and directories holding a JSON-lines, v1
// or v2 segment — one with a half-written snapshot.tmp, one with a v3
// segment after the v2 one. The files are what the last revision with
// readers for these layouts wrote, and its ledger-migrate read each of them
// whole. cmd/trustd and cmd/trustctl cross the same table with their own
// entry points.
const olderLayouts = "testdata/older"

// treeBytes reads every file under root — root itself, when it is a file —
// by path relative to root; a directory reads as nil.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || d.IsDir() {
			out[rel] = nil
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestOldFormatRefusedReadOnly: every way into a ledger — Open,
// OpenStoreOptions, Inspect — refuses each older layout with ErrOldFormat
// and leaves every file name and byte as it was: an older header is never
// read as a torn current one and truncated, a stale snapshot.tmp is not
// removed, nothing is renamed.
func TestOldFormatRefusedReadOnly(t *testing.T) {
	openers := map[string]func(path string) error{
		"Open": func(path string) error {
			l, _, err := Open(path)
			if err == nil {
				_ = l.Close()
			}
			return err
		},
		"OpenStoreOptions": func(path string) error {
			ps, err := OpenStoreOptions(context.Background(), path, Options{Shards: 2, MemBudget: 1 << 40})
			if err == nil {
				_ = ps.Close()
			}
			return err
		},
		"Inspect": func(path string) error {
			_, err := Inspect(path)
			return err
		},
	}
	layouts, err := os.ReadDir(olderLayouts)
	if err != nil || len(layouts) != 6 {
		t.Fatalf("%d older layouts (%v), want 6", len(layouts), err)
	}
	for _, layout := range layouts {
		t.Run(layout.Name(), func(t *testing.T) {
			want := treeBytes(t, filepath.Join(olderLayouts, layout.Name()))
			root := t.TempDir()
			for rel, data := range want {
				path := filepath.Join(root, rel)
				if data == nil {
					continue // a directory, made for the files in it
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for name, open := range openers {
				if err := open(filepath.Join(root, "led")); !errors.Is(err, ErrOldFormat) {
					t.Fatalf("%s: %v, want ErrOldFormat", name, err)
				}
				if !reflect.DeepEqual(treeBytes(t, root), want) {
					t.Fatalf("%s changed the directory it refused", name)
				}
			}
		})
	}
}
