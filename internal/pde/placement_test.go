package pde

import "testing"

// TestMapReportBucketBytes: the per-bucket size accessor feeding the
// join planner's per-map bucket sizes must decode lossy codes within
// the 10% bound and return exact values when encoding is disabled.
func TestMapReportBucketBytes(t *testing.T) {
	bytes := []int64{0, 100, 50000, 1 << 30}
	records := []int64{0, 10, 500, 1 << 20}

	exact := CollectorConfig{DisableEncoding: true}.NewTaskCollector().
		BuildReport(0, bytes, records)
	for i, b := range bytes {
		if got := exact.BucketBytes(i); got != b {
			t.Errorf("exact bucket %d = %d, want %d", i, got, b)
		}
	}

	coded := CollectorConfig{}.NewTaskCollector().BuildReport(0, bytes, records)
	for i, b := range bytes {
		got := coded.BucketBytes(i)
		if b == 0 {
			if got != 0 {
				t.Errorf("coded bucket %d = %d, want 0", i, got)
			}
			continue
		}
		lo, hi := float64(b)*0.9, float64(b)*1.1
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("coded bucket %d = %d, outside 10%% of %d", i, got, b)
		}
	}

	// Out-of-range buckets are harmless.
	if coded.BucketBytes(-1) != 0 || coded.BucketBytes(99) != 0 {
		t.Error("out-of-range buckets should report 0 bytes")
	}
}
