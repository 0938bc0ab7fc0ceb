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

// CounterValue reads one counter series ("name" or `name{k="v"}`) off the
// default registry's snapshot.
func CounterValue(t testing.TB, series string) uint64 {
	t.Helper()
	v, ok := obs.Default().Snapshot()[series].(uint64)
	if !ok {
		t.Fatalf("no counter series %s in the default registry", series)
	}
	return v
}

// TargetState returns the health state the report shows for target;
// ok is false when the report does not track it.
func TargetState(rep obs.WatchReport, target string) (state string, ok bool) {
	for _, tg := range rep.Targets {
		if tg.Target == target {
			return tg.State, true
		}
	}
	return "", false
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
