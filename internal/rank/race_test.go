//go:build race

package rank

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its Puts: the pooled evaluators then allocate afresh at random.
const raceEnabled = true
