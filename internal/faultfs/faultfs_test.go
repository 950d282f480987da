package faultfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.bin")

	f, err := OS.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := OS.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path + ".2")
	if err != nil || string(got) != "hello" {
		t.Fatalf("got %q, %v", got, err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("ReadDir: %v %v", ents, err)
	}
}

func TestFaultySyncError(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(OS)
	boom := errors.New("sync boom")
	ffs.Inject(Fault{Op: OpSync, Err: boom})

	f, err := ffs.Create(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync err = %v, want %v", err, boom)
	}
	// Rule is spent: next Sync passes through.
	if err := f.Sync(); err != nil {
		t.Fatalf("second Sync = %v, want nil", err)
	}
	if fired := ffs.Fired(); len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestFaultyTornWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn")
	ffs := Wrap(OS)
	boom := errors.New("io boom")
	// First write fine; second write tears after 3 bytes with an error.
	ffs.Inject(Fault{Op: OpWrite, After: 1, Short: 3, Err: boom})

	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("bbbb"))
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "aaaabbb" {
		t.Fatalf("file = %q, want aaaabbb", got)
	}
}

func TestFaultyShortWriteReportedAsSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lie")
	ffs := Wrap(OS)
	ffs.Inject(Fault{Op: OpWrite, Short: 2})

	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("cccc"))
	if err != nil || n != 4 {
		t.Fatalf("lying write: n=%d err=%v, want 4,nil", n, err)
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if string(got) != "cc" {
		t.Fatalf("file = %q, want cc", got)
	}
}

func TestFaultyPathMatchAndRename(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(OS)
	boom := errors.New("rename boom")
	ffs.Inject(Fault{Op: OpRename, PathContains: "final", Err: boom})

	a := filepath.Join(dir, "a")
	if err := os.WriteFile(a, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Non-matching path passes through.
	if err := ffs.Rename(a, filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(filepath.Join(dir, "b"), filepath.Join(dir, "final")); !errors.Is(err, boom) {
		t.Fatalf("rename = %v, want %v", err, boom)
	}
}

func TestFlipByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flip")
	if err := os.WriteFile(path, []byte{0x00, 0xff, 0x0f}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipByte(path, 1, 0x81); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	want := []byte{0x00, 0x7e, 0x0f}
	if string(got) != string(want) {
		t.Fatalf("file = %x, want %x", got, want)
	}
}

func TestFaultyRepeat(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(OS)
	boom := errors.New("always")
	ffs.Inject(Fault{Op: OpSyncDir, Err: boom, Repeat: true})
	for i := 0; i < 3; i++ {
		if err := ffs.SyncDir(dir); !errors.Is(err, boom) {
			t.Fatalf("SyncDir #%d = %v", i, err)
		}
	}
	ffs.Clear()
	if err := ffs.SyncDir(dir); err != nil {
		t.Fatalf("after Clear: %v", err)
	}
}

func TestFaultyHold(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(OS)
	boom := errors.New("held, then failed")
	for _, tc := range []struct {
		name string
		err  error
	}{{"proceeds", nil}, {"fails", boom}} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := ffs.Create(filepath.Join(dir, tc.name))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			hold := make(chan struct{})
			before := len(ffs.Fired())
			ffs.Inject(Fault{Op: OpSync, PathContains: tc.name, Hold: hold, Err: tc.err})
			done := make(chan error, 1)
			go func() { done <- f.Sync() }()
			ffs.AwaitFired(before + 1) // Sync has matched the rule and is parked on hold
			select {
			case err := <-done:
				t.Fatalf("held Sync returned %v before the hold was released", err)
			default:
			}
			close(hold)
			if err := <-done; !errors.Is(err, tc.err) {
				t.Fatalf("released Sync = %v, want %v", err, tc.err)
			}
		})
	}
}

func TestFaultyRuleWithoutErrOnlyCounts(t *testing.T) {
	dir := t.TempDir()
	ffs := Wrap(OS)
	ffs.Inject(Fault{Op: OpWrite, Repeat: true})
	path := filepath.Join(dir, "a")
	f, err := ffs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, err := f.Write([]byte("xy")); n != 2 || err != nil {
			t.Fatalf("write %d = %d, %v", i, n, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "xyxyxy" {
		t.Fatalf("file holds %q, %v: a rule with neither Err nor Short must let writes through", got, err)
	}
	if fired := ffs.Fired(); len(fired) != 3 {
		t.Fatalf("fired %d times, want 3: %v", len(fired), fired)
	}
}
