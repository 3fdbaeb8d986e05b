package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupAllSucceed(t *testing.T) {
	g, _ := newGroup(context.Background())
	var sum atomic.Int64
	for i := 1; i <= 10; i++ {
		g.Go(func() error {
			sum.Add(int64(i))
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if sum.Load() != 55 {
		t.Fatalf("sum = %d, want 55", sum.Load())
	}
}

func TestGroupFirstErrorWinsAndCancels(t *testing.T) {
	g, ctx := newGroup(context.Background())
	boom := errors.New("boom")
	g.Go(func() error { return boom })
	g.Go(func() error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return errors.New("sibling was not canceled")
		}
	})
	err := g.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if ctx.Err() == nil {
		t.Fatal("group context not canceled after Wait")
	}
}

func TestGroupRecoversPanic(t *testing.T) {
	g, _ := newGroup(context.Background())
	g.Go(func() error { panic("kaboom") })
	err := g.Wait()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Wait = %v, want task panic error", err)
	}
}

// TestMapRecoversPanic pins supervision at every worker count: a
// panicking fn becomes Map's error, one worker included.
func TestMapRecoversPanic(t *testing.T) {
	for _, w := range []int{1, 2} {
		out, err := Map(context.Background(), w, 4, func(_ context.Context, i int) (int, error) {
			if i == 2 {
				panic("kaboom")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("workers=%d: err = %v, want task panic error", w, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: Map returned results alongside a panic", w)
		}
	}
}

// TestMapBoundsConcurrency checks that the worker count caps how many
// fn calls run at once.
func TestMapBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), 3, 20, func(context.Context, int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent calls, limit 3", p)
	}
}

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		n := 100
		seen := make([]atomic.Int64, n)
		err := forEach(context.Background(), w, n, func(_ context.Context, i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, seen[i].Load())
			}
		}
	}
}

func TestForEachStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := forEach(context.Background(), 2, 1000, func(_ context.Context, i int) error {
		calls.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if c := calls.Load(); c == 1000 {
		t.Fatal("all 1000 indexes ran despite an early error")
	}
}

func TestForEachSerialRespectsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2} {
		var calls atomic.Int64
		err := forEach(ctx, w, 10, func(context.Context, int) error {
			calls.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if c := calls.Load(); c != 0 {
			t.Fatalf("workers=%d: fn ran %d times under a canceled context", w, c)
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts is the package's core contract:
// results land by index, so any worker count yields the same slice.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	n := 200
	want, err := Map(context.Background(), 1, n, func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("item-%03d", i*i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 16} {
		got, err := Map(context.Background(), w, n, func(_ context.Context, i int) (string, error) {
			return fmt.Sprintf("item-%03d", i*i), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", w, i, got[i], want[i])
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 4, 50, func(_ context.Context, i int) (int, error) {
		if i == 17 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if out != nil {
		t.Fatal("Map returned results alongside an error")
	}
}

func TestWorkersNormalization(t *testing.T) {
	cases := []struct{ req, items, min, max int }{
		{0, 100, 1, 1 << 20}, // NumCPU, whatever it is
		{8, 3, 3, 3},         // capped at item count
		{-5, 2, 1, 2},
		{1, 0, 1, 1},
	}
	for _, c := range cases {
		got := workers(c.req, c.items)
		if got < c.min || got > c.max {
			t.Errorf("workers(%d, %d) = %d, want in [%d, %d]", c.req, c.items, got, c.min, c.max)
		}
	}
}
