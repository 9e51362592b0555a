//go:build race

package prediction

// raceEnabled: see race_off_test.go.
const raceEnabled = true
