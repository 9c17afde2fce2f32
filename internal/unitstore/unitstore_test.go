package unitstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fsutil"
)

// toy is the smallest manifest a codec could have.
type toy struct {
	V     int
	Items []toyUnit
	Seal  bool
}

type toyUnit struct {
	File, Digest string
	Note         string // what a codec's record hook adds; Demote clears it
	Complete     bool
}

func (m *toy) Version() int  { return m.V }
func (m *toy) Units() int    { return len(m.Items) }
func (m *toy) Sealed() *bool { return &m.Seal }
func (m *toy) Demote(i int)  { m.Items[i] = toyUnit{File: m.Items[i].File} }
func (m *toy) Unit(i int) (string, *string, *bool) {
	u := &m.Items[i]
	return u.File, &u.Digest, &u.Complete
}

var (
	errCorrupt    = errors.New("toy: corrupt")
	errIncomplete = errors.New("toy: incomplete")
	toyLayout     = Layout{Pkg: "toy", ManifestName: "toy.json", Version: 3, Corrupt: errCorrupt, Incomplete: errIncomplete}
)

func unitName(i int) string { return fmt.Sprintf("unit-%d", i) }

// open creates or resumes a toy store of n units.
func open(t *testing.T, dir string, n int) (*Store, *toy) {
	t.Helper()
	man := &toy{}
	st, err := Create(toyLayout, dir, man, func() {
		*man = toy{V: 3}
		for i := 0; i < n; i++ {
			man.Items = append(man.Items, toyUnit{File: unitName(i)})
		}
	}, func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return st, man
}

func commit(t *testing.T, st *Store, i int, data string) {
	t.Helper()
	if ok, err := st.Commit(i, []byte(data), false, nil); err != nil || !ok {
		t.Fatalf("commit %d: committed=%v err=%v", i, ok, err)
	}
}

// snapshot maps every name in dir to its content digest.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := map[string]string{}
	for _, e := range entries {
		d, err := fsutil.FileSHA256(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		snap[e.Name()] = d
	}
	return snap
}

func TestFreshCreateListsEveryUnitPending(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	st, _ := open(t, dir, 4)
	if done, total := st.Progress(); done != 0 || total != 4 {
		t.Errorf("fresh progress %d/%d, want 0/4", done, total)
	}
	for i := 0; i < 4; i++ {
		if st.Done(i) {
			t.Errorf("fresh unit %d is done", i)
		}
	}
	if st.Done(-1) || st.Done(4) {
		t.Error("out-of-range unit reported done")
	}
	if !toyLayout.IsDir(dir) {
		t.Error("fresh store has no manifest on disk")
	}
}

func TestCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, man := open(t, dir, 3)
	if _, err := st.Commit(1, []byte("one"), false, func() { man.Items[1].Note = "kept" }); err != nil {
		t.Fatal(err)
	}
	st, man = open(t, dir, 3)
	if !st.Done(1) || st.Done(0) || st.Done(2) {
		t.Errorf("after reopen done = %v %v %v, want only unit 1", st.Done(0), st.Done(1), st.Done(2))
	}
	if u := man.Items[1]; u.Digest != fsutil.SHA256([]byte("one")) || u.Note != "kept" {
		t.Errorf("reopened unit 1 = %+v", u)
	}
	if _, err := st.Commit(3, nil, false, nil); err == nil {
		t.Error("commit of a unit outside the manifest accepted")
	}
}

func TestDamagedUnitIsDemoted(t *testing.T) {
	damage := map[string]func(path string) error{
		"flipped byte": func(p string) error { return os.WriteFile(p, []byte("twO"), 0o644) },
		"truncated":    func(p string) error { return os.Truncate(p, 1) },
		"deleted":      os.Remove,
	}
	for name, hurt := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, man := open(t, dir, 3)
			for i, data := range []string{"one", "two", "three"} {
				if _, err := st.Commit(i, []byte(data), false, func() { man.Items[i].Note = data }); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Seal(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
			if err := hurt(filepath.Join(dir, unitName(1))); err != nil {
				t.Fatal(err)
			}
			st, man = open(t, dir, 3)
			if !st.Done(0) || st.Done(1) || !st.Done(2) {
				t.Errorf("done = %v %v %v, want exactly unit 1 demoted", st.Done(0), st.Done(1), st.Done(2))
			}
			if want := (toyUnit{File: unitName(1)}); man.Items[1] != want {
				t.Errorf("demoted entry = %+v, want %+v", man.Items[1], want)
			}
			if _, err := os.Stat(filepath.Join(dir, unitName(1))); !os.IsNotExist(err) {
				t.Errorf("damaged unit file still present (stat err %v)", err)
			}
			var onDisk toy
			if err := toyLayout.Read(dir, &onDisk); err != nil {
				t.Fatal(err)
			}
			if onDisk.Seal || !reflect.DeepEqual(&onDisk, man) {
				t.Errorf("manifest on disk %+v, in memory %+v; want equal and unsealed", onDisk, *man)
			}
		})
	}
}

func TestStaleTempFilesAreSwept(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, 2)
	tmp := filepath.Join(dir, fsutil.TempPrefix+"unit-0-123")
	if err := os.WriteFile(tmp, []byte("half a unit"), 0o644); err != nil {
		t.Fatal(err)
	}
	open(t, dir, 2)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived resume (stat err %v)", err)
	}
}

func TestMatchRefusalTouchesNothing(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir, 3)
	commit(t, st, 0, "zero")
	commit(t, st, 1, "one")
	// Everything a resume would otherwise clean up or rewrite.
	os.WriteFile(filepath.Join(dir, fsutil.TempPrefix+"stale"), []byte("x"), 0o644)
	os.WriteFile(filepath.Join(dir, unitName(1)), []byte("damaged"), 0o644)
	before := snapshot(t, dir)

	refuse := errors.New("not your store")
	_, err := Create(toyLayout, dir, &toy{}, func() { t.Error("init called on an existing store") },
		func() error { return refuse })
	if !errors.Is(err, refuse) {
		t.Fatalf("err = %v, want the match error", err)
	}
	if after := snapshot(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("refused resume changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}

func TestCommitIfNewLeavesDoneUnitAlone(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir, 2)
	commit(t, st, 0, "first")
	path := filepath.Join(dir, unitName(0))
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	recorded := false
	ok, err := st.Commit(0, []byte("second"), true, func() { recorded = true })
	if err != nil || ok || recorded {
		t.Fatalf("redelivered commit: committed=%v recorded=%v err=%v, want a silent no-op", ok, recorded, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "first" || !fi.ModTime().Equal(old) {
		t.Errorf("done unit was rewritten: %q, mtime %v", data, fi.ModTime())
	}
	if ok, err := st.Commit(1, []byte("new"), true, nil); err != nil || !ok {
		t.Errorf("ifNew commit of a pending unit: committed=%v err=%v", ok, err)
	}
}

func TestSealRefusesPendingUnits(t *testing.T) {
	dir := t.TempDir()
	st, man := open(t, dir, 2)
	commit(t, st, 0, "zero")
	err := st.Seal(func() error { t.Error("finish ran with a unit pending"); return nil })
	if !errors.Is(err, errIncomplete) {
		t.Fatalf("seal with a pending unit: err = %v, want the layout's Incomplete", err)
	}
	commit(t, st, 1, "one")
	refuse := errors.New("codec says no")
	if err := st.Seal(func() error { return refuse }); !errors.Is(err, refuse) || man.Seal {
		t.Fatalf("refusing finish: err = %v sealed = %v", err, man.Seal)
	}
	if err := st.Seal(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	var onDisk toy
	if err := toyLayout.Read(dir, &onDisk); err != nil || !onDisk.Seal {
		t.Errorf("sealed manifest on disk: %+v, err %v", onDisk, err)
	}
	// A clean resume keeps the seal.
	if _, man := open(t, dir, 2); !man.Seal {
		t.Error("resume over an intact sealed store dropped the seal")
	}
}

func TestConcurrentCommits(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	st, man := open(t, dir, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := []byte(fmt.Sprintf("payload %d", i))
			if _, err := st.Commit(i, data, true, func() { man.Items[i].Note = "n" }); err != nil {
				t.Error(err)
			}
			st.Progress()
			st.View(func() { _ = man.Items[0].Complete })
		}(i)
	}
	wg.Wait()
	if done, total := st.Progress(); done != n || total != n {
		t.Fatalf("progress %d/%d after %d commits", done, total, n)
	}
	var onDisk toy
	if err := toyLayout.Read(dir, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&onDisk, man) {
		t.Errorf("manifest does not round-trip:\ndisk %+v\nmem  %+v", onDisk, *man)
	}
	for i := range onDisk.Items {
		if err := toyLayout.Verify(filepath.Join(dir, onDisk.Items[i].File), onDisk.Items[i].Digest); err != nil {
			t.Error(err)
		}
	}
}

// A file sitting under a pending unit's name proves nothing — a crash between
// the unit's rename and the manifest rewrite leaves exactly that — so the
// manifest must not call the unit complete until its own commit, which
// overwrites the stray.
func TestStrayFileUnderPendingNameIsNeverTrusted(t *testing.T) {
	dir := t.TempDir()
	open(t, dir, 2)
	stray := filepath.Join(dir, unitName(1))
	if err := os.WriteFile(stray, []byte("left by a crash"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _ := open(t, dir, 2)
	if st.Done(1) {
		t.Fatal("stray file made its unit complete")
	}
	commit(t, st, 1, "the real unit")
	if data, _ := os.ReadFile(stray); string(data) != "the real unit" {
		t.Errorf("unit file holds %q after commit", data)
	}
	var onDisk toy
	if err := toyLayout.Read(dir, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := toyLayout.Verify(stray, onDisk.Items[1].Digest); err != nil {
		t.Errorf("manifest digest does not cover the committed bytes: %v", err)
	}
}

// The manifest is written after the unit file is durable, never before: seen
// from the directory, a unit the manifest calls complete always verifies.
func TestManifestNeverNamesAnUnwrittenUnit(t *testing.T) {
	dir := t.TempDir()
	st, _ := open(t, dir, 1)
	// Block the unit write: a directory squatting on the final name makes the
	// rename fail after the temp file was written.
	if err := os.Mkdir(filepath.Join(dir, unitName(0)), 0o755); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Commit(0, []byte("data"), false, nil); err == nil || ok {
		t.Fatalf("commit over an unwritable name: committed=%v err=%v", ok, err)
	}
	var onDisk toy
	if err := toyLayout.Read(dir, &onDisk); err != nil {
		t.Fatal(err)
	}
	if onDisk.Items[0].Complete || st.Done(0) {
		t.Error("a unit whose file never landed is marked complete")
	}
}

func TestReadRefusesUntrustworthyManifests(t *testing.T) {
	victim := filepath.Join(t.TempDir(), "victim.txt")
	cases := map[string]toy{
		"path escape":     {V: 3, Items: []toyUnit{{File: "../victim.txt", Digest: "00", Complete: true}}},
		"absolute path":   {V: 3, Items: []toyUnit{{File: victim, Digest: "00", Complete: true}}},
		"subdirectory":    {V: 3, Items: []toyUnit{{File: "a/b"}}},
		"dot dot":         {V: 3, Items: []toyUnit{{File: ".."}}},
		"empty name":      {V: 3, Items: []toyUnit{{File: ""}}},
		"temp name":       {V: 3, Items: []toyUnit{{File: fsutil.TempPrefix + "x"}}},
		"the manifest":    {V: 3, Items: []toyUnit{{File: "toy.json"}}},
		"foreign version": {V: 4, Items: []toyUnit{{File: "unit-0"}}},
		"sealed empty":    {V: 3, Seal: true},
	}
	for name, man := range cases {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(filepath.Dir(victim), "store-"+name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(victim, []byte("precious"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := toyLayout.Write(dir, &man); err != nil {
				t.Fatal(err)
			}
			before := snapshot(t, dir)
			if err := toyLayout.Read(dir, &toy{}); err == nil {
				t.Error("Read accepted the manifest")
			}
			_, err := Create(toyLayout, dir, &toy{}, func() {}, func() error { return nil })
			if err == nil {
				t.Error("Create resumed over the manifest")
			}
			if data, _ := os.ReadFile(victim); string(data) != "precious" {
				t.Errorf("file outside the store is now %q", data)
			}
			if after := snapshot(t, dir); !reflect.DeepEqual(before, after) {
				t.Errorf("refused manifest still changed the directory: %v -> %v", before, after)
			}
		})
	}
}
