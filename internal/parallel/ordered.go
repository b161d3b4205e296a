package parallel

import "sync"

// Ordered fans tasks out to the shared worker pool and delivers their
// results in submission order — the ordered-completion primitive under the
// streaming decompression pipeline. A producer goroutine calls Submit, a
// consumer calls Next; neither needs to know about the other's pace:
//
//   - At most `workers` submitted tasks execute concurrently (a semaphore,
//     so one Ordered cannot monopolize the shared pool).
//   - At most `readahead` results are in flight — submitted but not yet
//     handed to Next. When the consumer stalls, Submit blocks: that is the
//     back-pressure bound that keeps memory O(readahead × task footprint).
//
// One goroutine may be both: it submits, takes, submits. Then nobody else can
// relieve the back-pressure, so that caller must never Submit with `readahead`
// results out — it takes one first (the streaming Reader and Writer work this
// way; TestOrderedSingleGoroutine pins that the rule is sufficient).
//
// Tasks run on the persistent pool when it has a free slot and inline on
// the submitting goroutine otherwise, so an Ordered can never deadlock
// behind other pool users. Tasks must not block indefinitely: a task queued
// or running always produces exactly one result, which is what lets Next
// use a plain receive and Wait drain cleanly after Stop.
type Ordered[T any] struct {
	slots    chan chan T   // submission-ordered delivery queue, cap = readahead
	sem      chan struct{} // concurrency limiter, cap = workers
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewOrdered returns an Ordered running at most workers concurrent tasks
// with at most readahead undelivered results. workers <= 0 selects the pool
// size; readahead is clamped up to workers (a smaller value would idle
// workers for no memory benefit).
func NewOrdered[T any](workers, readahead int) *Ordered[T] {
	once.Do(start)
	if workers <= 0 || workers > size {
		workers = size
	}
	if readahead < workers {
		readahead = workers
	}
	return &Ordered[T]{
		slots: make(chan chan T, readahead),
		sem:   make(chan struct{}, workers),
		stop:  make(chan struct{}),
	}
}

// Submit queues fn for execution and reserves the next delivery slot. It
// blocks while readahead results are undelivered or workers tasks are
// running, and returns false — without running fn — once Stop has been
// called. A true return guarantees fn's result will reach Next.
func (o *Ordered[T]) Submit(fn func() T) bool {
	slot := make(chan T, 1)
	select {
	case o.slots <- slot:
	case <-o.stop:
		return false
	}
	// No stop-select here: a queued slot must always receive a result, and
	// the wait is bounded because running tasks never block indefinitely.
	o.sem <- struct{}{}
	o.wg.Add(1)
	run := func() {
		defer o.wg.Done()
		slot <- fn()
		<-o.sem
	}
	select {
	case tasks <- run:
	default:
		run()
	}
	return true
}

// Finish closes the delivery queue: after all submitted results are
// consumed, Next returns ok=false. Submit must not be called after Finish.
func (o *Ordered[T]) Finish() { close(o.slots) }

// Next returns the next result in submission order, blocking until it is
// ready. ok is false once the queue is finished and drained.
func (o *Ordered[T]) Next() (v T, ok bool) {
	slot, ok := <-o.slots
	if !ok {
		return v, false
	}
	return <-slot, true
}

// Stop makes all current and future Submit calls return false. Results
// already queued remain readable. Safe to call more than once.
func (o *Ordered[T]) Stop() { o.stopOnce.Do(func() { close(o.stop) }) }

// Wait blocks until every dispatched task has finished. Call after Stop
// (and after the producer has exited) before reclaiming resources that
// running tasks may still hold.
func (o *Ordered[T]) Wait() { o.wg.Wait() }
