package conc

// Pool is a bounded background worker pool for maintenance work the
// caller must not block on — segment merges behind a live index being
// the motivating case. Unlike Do, submitted tasks are asynchronous:
// Submit returns immediately and the task runs on one of up to
// `workers` goroutines, so the pool bounds how much CPU maintenance can
// steal from serving.
//
// Background execution trades away the determinism contract of Do: task
// completion order depends on the scheduler. Use a Pool only for work
// whose *timing* is allowed to be nondeterministic (wall-clock serving
// modes); deterministic replays run the same work synchronously.
type Pool struct {
	sem chan struct{}
}

// NewPool creates a pool running at most workers tasks concurrently
// (workers <= 0 selects GOMAXPROCS).
func NewPool(workers int) *Pool {
	return &Pool{sem: make(chan struct{}, Workers(workers))}
}

// Submit schedules fn on a background goroutine. It never blocks the
// caller: the goroutine itself waits for a free slot, so bursts of
// submissions queue in the runtime rather than in the mutator's path.
func (p *Pool) Submit(fn func()) {
	go func() {
		p.sem <- struct{}{}
		defer func() { <-p.sem }()
		fn()
	}()
}
