package server

// Busy is the number of workers the front-end's queue counts as
// occupied, for tests that check none leaked.
func (f *Frontend) Busy() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.q.busy
}
