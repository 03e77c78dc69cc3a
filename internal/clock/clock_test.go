package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestFakeSleepAdvancesAndHonorsCancel(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	f := NewFake(start)
	if err := f.Sleep(context.Background(), 3*time.Second); err != nil {
		t.Fatalf("Sleep on a live context = %v, want nil", err)
	}
	if got := f.Now().Sub(start); got != 3*time.Second {
		t.Fatalf("Now advanced by %v, want 3s", got)
	}
	f.Advance(time.Minute)
	if got := f.Now().Sub(start); got != time.Minute+3*time.Second {
		t.Fatalf("Now advanced by %v after Advance, want 1m3s", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Sleep(ctx, time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep on a cancelled context = %v, want context.Canceled", err)
	}
	if got := f.Now().Sub(start); got != time.Minute+4*time.Second {
		t.Fatalf("a cancelled Sleep still advances: got %v, want 1m4s", got)
	}
}

func TestSystemSleepReturnsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	t0 := time.Now()
	err := System{}.Sleep(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if el := time.Since(t0); el > 10*time.Second {
		t.Fatalf("cancelled Sleep took %v", el)
	}
	if err := (System{}).Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep to completion = %v, want nil", err)
	}
}

func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	below1 := 1 - 1.0/(1<<20) // u → 1
	cases := []struct {
		name      string
		base, cap time.Duration
		attempt   int
		u         float64
		want      time.Duration
	}{
		{"first-u0", 100 * ms, 0, 0, 0, 50 * ms},
		{"first-u1", 100 * ms, 0, 0, 1, 100 * ms},
		{"doubled-u0", 100 * ms, 0, 3, 0, 400 * ms},
		{"doubled-u1", 100 * ms, 0, 3, 1, 800 * ms},
		{"half-jitter", 100 * ms, 0, 1, 0.5, 150 * ms},
		{"capped-u0", 100 * ms, 2 * time.Second, 10, 0, time.Second},
		{"capped-u1", 100 * ms, 2 * time.Second, 10, 1, 2 * time.Second},
		{"under-cap", 100 * ms, 2 * time.Second, 2, 0, 200 * ms},
		{"saturated-62", time.Nanosecond, 0, 62, 0, (time.Nanosecond << 32) / 2},
		{"saturated-cap", 100 * ms, 2 * time.Second, 62, 0, time.Second},
		{"overflow-capped", time.Hour, 2 * time.Second, 62, 0, time.Second},
		{"negative-attempt", 100 * ms, 0, -1, 0, 50 * ms},
		{"zero-base", 0, 2 * time.Second, 3, 0.7, 0},
		{"negative-base", -ms, 0, 0, 0.5, 0},
	}
	for _, c := range cases {
		if got := Backoff(c.base, c.cap, c.attempt, c.u); got != c.want {
			t.Errorf("%s: Backoff(%v, %v, %d, %v) = %v, want %v", c.name, c.base, c.cap, c.attempt, c.u, got, c.want)
		}
	}
	// The window is [d/2, d] for every u in [0, 1).
	for attempt := 0; attempt < 40; attempt++ {
		d := min(10*ms<<uint(min(attempt, 32)), 5*time.Second)
		lo := Backoff(10*ms, 5*time.Second, attempt, 0)
		hi := Backoff(10*ms, 5*time.Second, attempt, below1)
		if lo != d/2 || hi < lo || hi > d {
			t.Fatalf("attempt %d: window [%v, %v], want within [%v, %v] starting at %v", attempt, lo, hi, d/2, d, d/2)
		}
	}
	if a, b := Backoff(time.Nanosecond, 0, 62, 0.3), Backoff(time.Nanosecond, 0, 32, 0.3); a != b {
		t.Fatalf("attempt 62 = %v, attempt 32 = %v: doubling must saturate", a, b)
	}
	if got := Backoff(time.Hour, 0, 62, below1); got <= 0 {
		t.Fatalf("uncapped overflow = %v, want a saturated positive wait", got)
	}
}
