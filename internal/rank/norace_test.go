//go:build !race

package rank

const raceEnabled = false
