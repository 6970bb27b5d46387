//go:build race

package qproc

// raceEnabled reports a -race build, whose sync.Pool drops a quarter of
// its Puts: the pooled broker and evaluator scratch then allocate afresh
// at random.
const raceEnabled = true
