//go:build !race

package dns53_test

const raceEnabled = false
