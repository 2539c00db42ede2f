package ledger

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

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

// migrateAndCheck rewrites the ledger at from into a new directory and
// checks that the source kept every byte, that the new ledger replays want,
// takes an append, and reopens to want and the appended record.
func migrateAndCheck(t *testing.T, from string, want []feedback.Feedback) Migration {
	t.Helper()
	before := treeBytes(t, from)
	to := filepath.Join(t.TempDir(), "migrated")
	m, err := Migrate(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(treeBytes(t, from), before) {
		t.Fatal("Migrate changed its source")
	}
	if m.Records != uint64(len(want)) {
		t.Fatalf("Migrate reports %d records, want %d", m.Records, len(want))
	}
	l, got, err := Open(to)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the migrated ledger replays %d records, want the %d the source replayed", len(got), len(want))
	}
	more := feedback.Feedback{Time: time.Unix(1<<31, 0).UTC(), Server: "after", Client: "migration", Rating: feedback.Positive}
	if err := l.Append(more); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err = Open(to)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if want := append(want[:len(want):len(want)], more); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen after an append replays %d records, want %d", len(got), len(want))
	}
	return m
}

// writeFile writes data at dir/name.
func writeFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// jsonLines is records as PR 7's single-file ledger wrote them.
func jsonLines(t *testing.T, recs []feedback.Feedback) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		out = append(out, legacyLine(t, r)...)
	}
	return out
}

// oldLedger is a ledger as an earlier revision left it.
type oldLedger struct {
	name string
	// build writes it at path, which does not exist yet, and returns what
	// Migrate reads it from.
	build func(t *testing.T, path string) (source string)
	want  []feedback.Feedback // what the parent's Open replayed from it
}

// oldLedgers are the layouts a node refuses: v2 and v1 directories, a
// directory whose first segment is the JSON-lines file an upgrade moved in,
// the single JSON-lines file, a v2 directory the upgrade to v3 segments had
// sealed, and the single file set aside by an upgrade that never finished.
func oldLedgers() []oldLedger {
	recs := stream(300)
	mkdir := func(t *testing.T, path string) {
		t.Helper()
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return []oldLedger{
		{"v2 directory", func(t *testing.T, path string) string {
			mkdir(t, path)
			writeFile(t, path, segmentName(1), v2Segment(t, groupsOf(recs[:200]), true))
			writeFile(t, path, segmentName(2), v2Segment(t, groupsOf(recs[200:]), false))
			writeFile(t, path, snapTmpName, []byte("a snapshot a crash left half-written"))
			return path
		}, recs},
		{"v1 directory", func(t *testing.T, path string) string {
			mkdir(t, path)
			torn, _ := appendRowV1(t, nil, recs[90], 0)
			writeFile(t, path, segmentName(1), v1Segment(t, recs[:40], true))
			writeFile(t, path, segmentName(2), append(v1Segment(t, recs[40:90], false), torn[:len(torn)-5]...))
			return path
		}, recs[:90]},
		{"JSON-lines directory", func(t *testing.T, path string) string {
			mkdir(t, path)
			writeFile(t, path, segmentName(1), jsonLines(t, recs[:5]))
			writeFile(t, path, segmentName(2), segmentFile(t, groupsOf(recs[5:20]), false))
			return path
		}, recs[:20]},
		{"JSON-lines file", func(t *testing.T, path string) string {
			writeFile(t, filepath.Dir(path), filepath.Base(path), append(jsonLines(t, recs[:5]), "\n\n"...))
			return path
		}, recs[:5]},
		{"v2 sealed beside v3", func(t *testing.T, path string) string {
			mkdir(t, path)
			writeFile(t, path, segmentName(1), v2Segment(t, groupsOf(recs[:100]), true))
			writeFile(t, path, segmentName(2), v2Segment(t, groupsOf(recs[100:200]), true))
			writeFile(t, path, segmentName(3), segmentFile(t, groupsOf(recs[200:]), false))
			return path
		}, recs},
		{"interrupted upgrade", func(t *testing.T, path string) string {
			mkdir(t, path)
			writeFile(t, filepath.Dir(path), filepath.Base(path)+".migrating", jsonLines(t, recs[:7]))
			return path + ".migrating"
		}, recs[:7]},
	}
}

// TestOldFormatRefusedReadOnly: every way into a ledger — Open,
// OpenStoreOptions, Inspect — refuses each older layout with ErrOldFormat
// and leaves every file name and byte as it was: an older header is never
// read as a torn current one and truncated, a stale snapshot.tmp is not
// removed, nothing is renamed. Migrate then reads each into a ledger that
// replays exactly what the parent revision replayed from it.
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
	for _, old := range oldLedgers() {
		t.Run(old.name, func(t *testing.T) {
			root := t.TempDir()
			path := filepath.Join(root, "led")
			source := old.build(t, path)
			before := treeBytes(t, root)
			for name, open := range openers {
				if err := open(path); !errors.Is(err, ErrOldFormat) {
					t.Fatalf("%s: %v, want ErrOldFormat", name, err)
				}
				if !reflect.DeepEqual(treeBytes(t, root), before) {
					t.Fatalf("%s changed the directory it refused", name)
				}
			}
			if source != path {
				if _, err := Migrate(path, filepath.Join(t.TempDir(), "x")); err == nil {
					t.Fatal("Migrate read a directory beside an interrupted upgrade's file")
				}
			}
			migrateAndCheck(t, source, old.want)
		})
	}
}

// TestMigrateRefusesExistingTarget: the target must be new, so a migration
// never mixes into a ledger that holds records.
func TestMigrateRefusesExistingTarget(t *testing.T) {
	root := t.TempDir()
	from, to := filepath.Join(root, "old"), filepath.Join(root, "new")
	writeFile(t, root, "old", jsonLines(t, stream(3)))
	if err := os.Mkdir(to, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(from, to); err == nil {
		t.Fatal("Migrate wrote into an existing directory")
	}
	if _, err := Migrate(filepath.Join(root, "missing"), filepath.Join(root, "other")); err == nil {
		t.Fatal("Migrate of a missing source succeeded")
	}
}
