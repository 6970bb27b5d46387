//go:build !race

package qproc

const raceEnabled = false
