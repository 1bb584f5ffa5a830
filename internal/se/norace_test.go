//go:build !race

package se

const raceEnabled = false
