package miniredis

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetSetDel(t *testing.T) {
	s := NewServer()
	defer s.Close()

	if _, ok, err := s.Get("missing"); err != nil || ok {
		t.Fatalf("missing key: %v %v", ok, err)
	}
	if err := s.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if r := s.Do(Command{Name: CmdExists, Key: "k"}); r.Int != 1 {
		t.Fatalf("exists = %d", r.Int)
	}
	if r := s.Do(Command{Name: CmdDel, Key: "k"}); r.Int != 1 {
		t.Fatalf("del = %d", r.Int)
	}
	if r := s.Do(Command{Name: CmdDel, Key: "k"}); r.Int != 0 {
		t.Fatalf("double del = %d", r.Int)
	}
	if _, ok, _ := s.Get("k"); ok {
		t.Fatal("key survived DEL")
	}
}

func TestDBSizeAndStrlen(t *testing.T) {
	s := NewServer()
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Set(fmt.Sprintf("k%d", i), make([]byte, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if r := s.Do(Command{Name: CmdDBSize}); r.Int != 5 {
		t.Fatalf("dbsize = %d", r.Int)
	}
	if r := s.Do(Command{Name: CmdStrlen, Key: "k4"}); r.Int != 5 {
		t.Fatalf("strlen = %d", r.Int)
	}
}

func TestUnknownCommand(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if r := s.Do(Command{Name: "FLUSHALL"}); r.Err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestSizeTable(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.Set("small", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("big", make([]byte, 100000)); err != nil {
		t.Fatal(err)
	}
	if n, ok := s.SizeOf("small"); !ok || n != 100 {
		t.Fatalf("SizeOf(small) = %d %v", n, ok)
	}
	if n, ok := s.SizeOf("big"); !ok || n != 100000 {
		t.Fatalf("SizeOf(big) = %d %v", n, ok)
	}
	if _, ok := s.SizeOf("missing"); ok {
		t.Fatal("missing key has size")
	}
	s.Do(Command{Name: CmdDel, Key: "big"})
	if _, ok := s.SizeOf("big"); ok {
		t.Fatal("deleted key kept size entry")
	}
}

// A warm GET, an overwriting SET and a size query go through the command
// loop without allocating: the reply channel is recycled and no second index
// is kept beside the store.
func TestCommandPathAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops recycled reply channels at random under -race")
	}
	s := NewServer()
	defer s.Close()
	v := make([]byte, 64)
	if err := s.Set("k", v); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"GET", func() { _, _, _ = s.Get("k") }},
		{"SET", func() { _ = s.Set("k", v) }},
		{"SizeOf", func() { _, _ = s.SizeOf("k") }},
	} {
		if n := testing.AllocsPerRun(200, c.op); n != 0 {
			t.Errorf("%s allocates %.1f times per command, want 0", c.name, n)
		}
	}
}

// SizeOf answers on the command loop but is not a command: Ops, which the
// ledger's oracle compares with its model, does not count it.
func TestSizeOfIsNotCounted(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.Set("k", make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	before := s.Ops()
	for i := 0; i < 10; i++ {
		if n, ok := s.SizeOf("k"); !ok || n != 7 {
			t.Fatalf("SizeOf(k) = %d %v", n, ok)
		}
		if _, ok := s.SizeOf("missing"); ok {
			t.Fatal("missing key has size")
		}
	}
	if got := s.Ops(); got != before {
		t.Fatalf("ops = %d after size queries, want %d", got, before)
	}
}

// A command racing Close either runs or fails with ErrClosed; it never comes
// back as a zero Reply, which would read as a found key with a nil value or as
// a write that succeeded.
func TestDoRacingCloseReturnsErrClosed(t *testing.T) {
	for round := 0; round < 200; round++ {
		s := NewServer()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					v, ok, err := s.Get("never-set")
					if err == nil && (ok || v != nil) {
						t.Errorf("Get of a never-set key = %q, found %v, no error", v, ok)
						return
					}
					if err != nil && err != ErrClosed {
						t.Errorf("Get: %v", err)
						return
					}
					if err := s.Set("k", nil); err != nil && err != ErrClosed {
						t.Errorf("Set: %v", err)
						return
					}
				}
			}()
		}
		s.Close()
		wg.Wait()
		if t.Failed() {
			return
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewServer()
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Set(fmt.Sprintf("key:%03d", i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Mutate after the snapshot.
	if err := s.Set("key:000", []byte("mutated")); err != nil {
		t.Fatal(err)
	}
	s.Do(Command{Name: CmdDel, Key: "key:001"})

	// Restore into a *different* server — the fail-over scenario.
	s2 := NewServer()
	defer s2.Close()
	if err := s2.Restore(img); err != nil {
		t.Fatal(err)
	}
	if r := s2.Do(Command{Name: CmdDBSize}); r.Int != 100 {
		t.Fatalf("restored dbsize = %d", r.Int)
	}
	v, ok, _ := s2.Get("key:000")
	if !ok || string(v) != "val0" {
		t.Fatalf("restored key:000 = %q %v", v, ok)
	}
	// Size table rebuilt on restore.
	if n, ok := s2.SizeOf("key:099"); !ok || n != len("val99") {
		t.Fatalf("restored SizeOf = %d %v", n, ok)
	}
}

func TestRestoreCorruptImage(t *testing.T) {
	s := NewServer()
	defer s.Close()
	if err := s.Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestOpsCounter(t *testing.T) {
	s := NewServer()
	defer s.Close()
	before := s.Ops()
	for i := 0; i < 10; i++ {
		_ = s.Set("k", nil)
	}
	if got := s.Ops(); got < before+10 {
		t.Fatalf("ops = %d, want ≥ %d", got, before+10)
	}
}

func TestClosedServer(t *testing.T) {
	s := NewServer()
	s.Close()
	s.Close() // idempotent
	if r := s.Do(Command{Name: CmdPing}); r.Err != ErrClosed {
		t.Fatalf("err = %v", r.Err)
	}
}

// TestSingleThreadedOrdering verifies Redis-like total ordering: interleaved
// increment-style read-modify-write from many goroutines through the single
// command loop never loses the final write that each goroutine issues last.
func TestConcurrentClients(t *testing.T) {
	s := NewServer()
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("g%d", g)
			for i := 0; i < 200; i++ {
				if err := s.Set(key, []byte(fmt.Sprintf("%d", i))); err != nil {
					t.Errorf("set: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		v, ok, err := s.Get(fmt.Sprintf("g%d", g))
		if err != nil || !ok || string(v) != "199" {
			t.Fatalf("g%d = %q %v %v", g, v, ok, err)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	s := NewServer()
	defer s.Close()
	v := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Set("bench", v)
	}
}

func BenchmarkGet(b *testing.B) {
	s := NewServer()
	defer s.Close()
	_ = s.Set("bench", make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = s.Get("bench")
	}
}

func BenchmarkSnapshot1000Keys(b *testing.B) {
	s := NewServer()
	defer s.Close()
	for i := 0; i < 1000; i++ {
		_ = s.Set(fmt.Sprintf("key:%04d", i), make([]byte, 64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
