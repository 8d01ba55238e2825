package main

import "testing"

// The result line holds exactly the listed metrics, and a listed metric a
// run did not measure, or measured in another unit, fails the run.
func TestSelectListed(t *testing.T) {
	got := map[string]metricValue{
		"p50_ms": {Value: 0.07, Unit: "ms"},
		"auc":    {Value: 0.78, Unit: "auc"},
	}
	out, err := selectListed(got, []listedMetric{{Name: "p50_ms", Unit: "ms"}})
	if err != nil || len(out) != 1 || out["p50_ms"].Value != 0.07 {
		t.Fatalf("selectListed = %v, %v; want only p50_ms", out, err)
	}
	if _, err := selectListed(got, []listedMetric{{Name: "heavy_p50_ms", Unit: "ms"}}); err == nil {
		t.Error("a listed metric the run did not measure was accepted")
	}
	if _, err := selectListed(got, []listedMetric{{Name: "p50_ms", Unit: "s"}}); err == nil {
		t.Error("a metric measured in another unit than listed was accepted")
	}
}

func TestReadManifest(t *testing.T) {
	for _, perLayer := range []bool{false, true} {
		ms, err := readManifest("../"+manifest, perLayer)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 {
			t.Errorf("perLayer=%v: no metrics listed", perLayer)
		}
		for _, m := range ms {
			if m.Name == "" || m.Unit == "" {
				t.Errorf("perLayer=%v: metric %+v lacks a name or unit", perLayer, m)
			}
		}
	}
}
