package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForShareCoverageAndBounds(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, w := range []int{0, 1, 3, 64} {
			want := Workers(n, w)
			var mu sync.Mutex
			seen := make(map[int]int)
			ForShare(n, w, func(share, i int) {
				if share < 0 || (n > 0 && share >= want) {
					t.Errorf("n=%d w=%d: share %d out of [0,%d)", n, w, share, want)
				}
				mu.Lock()
				seen[i]++
				mu.Unlock()
			})
			if len(seen) != n {
				t.Fatalf("n=%d w=%d: %d items visited", n, w, len(seen))
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d w=%d: item %d visited %d times", n, w, i, c)
				}
			}
		}
	}
}

// Results must arrive in submission order regardless of completion order.
func TestOrderedDelivery(t *testing.T) {
	o := NewOrdered[int](4, 8)
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			v := i
			if !o.Submit(func() int {
				if v%7 == 0 {
					runtime.Gosched() // perturb completion order
				}
				return v
			}) {
				t.Error("Submit returned false without Stop")
				break
			}
		}
		o.Finish()
	}()
	for i := 0; i < n; i++ {
		v, ok := o.Next()
		if !ok {
			t.Fatalf("queue finished after %d of %d results", i, n)
		}
		if v != i {
			t.Fatalf("result %d delivered out of order (got %d)", i, v)
		}
	}
	if _, ok := o.Next(); ok {
		t.Fatal("Next returned a result after Finish drained")
	}
	o.Stop()
	o.Wait()
}

// One goroutine that feeds and drains the queue itself — fill to the
// readahead bound, then take one and submit one to the end — never blocks on
// itself and keeps the order, at every worker count.
func TestOrderedSingleGoroutine(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		const n = 200
		readahead := 2 * workers
		o := NewOrdered[int](workers, readahead)
		done := make(chan struct{})
		go func() {
			defer close(done)
			out, next := 0, 0
			take := func() {
				if v, _ := o.Next(); v != next {
					t.Errorf("workers=%d: result %d delivered in place of %d", workers, v, next)
				}
				out, next = out-1, next+1
			}
			for i := 0; i < n; i++ {
				if out == readahead {
					take()
				}
				o.Submit(func() int { return i })
				out++
			}
			for out > 0 {
				take()
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: a single goroutine deadlocked on its own queue", workers)
		}
	}
}

// With a stalled consumer, Submit must block once readahead results are
// pending — the pipeline's back-pressure bound.
func TestOrderedBackPressure(t *testing.T) {
	const readahead = 3
	o := NewOrdered[int](2, readahead)
	var accepted atomic.Int32
	go func() {
		for i := 0; i < 100; i++ {
			if !o.Submit(func() int { return 0 }) {
				return
			}
			accepted.Add(1)
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if got := accepted.Load(); got > readahead {
		t.Fatalf("%d submissions accepted with no consumer; readahead is %d", got, readahead)
	}
	// Draining the queue lets the producer make progress again.
	for i := 0; i < readahead; i++ {
		if _, ok := o.Next(); !ok {
			t.Fatal("queue finished unexpectedly")
		}
	}
	deadline := time.After(2 * time.Second)
	for accepted.Load() <= readahead {
		select {
		case <-deadline:
			t.Fatal("producer did not resume after consumer drained")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	o.Stop()
	o.Wait()
}

// Stop must unblock a producer stuck in Submit and make further Submit
// calls return false, while results already queued stay readable.
func TestOrderedStop(t *testing.T) {
	o := NewOrdered[int](1, 2)
	blocked := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			v := i
			if !o.Submit(func() int { return v }) {
				close(blocked)
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	o.Stop()
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not unblock Submit")
	}
	o.Wait()
	// Queued results are still delivered in order.
	for i := 0; i < 2; i++ {
		v, ok := o.Next()
		if !ok || v != i {
			t.Fatalf("queued result %d: got %d, ok=%v", i, v, ok)
		}
	}
}
