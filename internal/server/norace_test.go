//go:build !race

package server_test

const raceEnabled = false
