package testutil

import (
	"testing"

	"encdns/internal/obs"
)

// HistogramCount reads the observation count of one histogram series
// ("name" or `name{k="v"}`) off the default registry's snapshot.
func HistogramCount(t testing.TB, series string) uint64 {
	t.Helper()
	h, ok := obs.Default().Snapshot()[series].(obs.HistogramSnapshot)
	if !ok {
		t.Fatalf("no histogram series %s in the default registry", series)
	}
	return h.Count
}

// AlertFiring reports whether the report shows the named burn alert
// firing for target.
func AlertFiring(rep obs.WatchReport, target, window string) bool {
	for _, tg := range rep.Targets {
		if tg.Target != target {
			continue
		}
		for _, a := range tg.Alerts {
			if a.Window == window {
				return a.Firing
			}
		}
	}
	return false
}
