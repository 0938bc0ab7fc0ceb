//go:build !race

package doh

const raceEnabled = false
