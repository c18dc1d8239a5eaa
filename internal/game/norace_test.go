//go:build !race

package game

const raceEnabled = false
