//go:build race

package server_test

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its Puts: a pooled buffer is then allocated afresh at random.
const raceEnabled = true
