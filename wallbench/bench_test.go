package main

import (
	"path/filepath"
	"testing"
)

var endToEnd = []string{"frames_per_s", "cpu_s_per_frame", "job_s_p50", "job_s_p90", "first_frame_s_p50", "peak_rss_mb", "setup_s"}

var perLayer = []string{
	"scenes.build_ms",
	"trace.resolve_ms", "trace.frame_ms", "trace.mrays_per_s", "trace.rays_per_frame",
	"coherence.key_frame_ms", "coherence.key_frame_overhead", "coherence.frame_ms",
	"coherence.change_detect_ms", "coherence.registrations_per_frame", "coherence.alloc_mb_per_frame",
	"coherence.registrations_resident", "coherence.copied_share",
	"msg.bytes_per_frame", "msg.messages_per_frame", "msg.send_ms_per_frame", "msg.master_recv_wait_ms_per_frame",
	"wire.delta_share", "wire.raw_to_wire_ratio",
	"farm.worker_busy_share", "farm.tasks",
	"service.submit_ms_p50", "service.queue_ms_p50", "fleet.lease_waits_per_job",
	"framecache.hit_share", "framecache.hit_job_ms_p50", "service.frame_fetch_ms_p50",
	"alloc_mb_per_frame", "tracing.overhead_share",
}

func smallRun(t *testing.T, workload string, o options) *run {
	t.Helper()
	o.small, o.seconds = true, 1
	if o.seed == 0 {
		o.seed = 7
	}
	if o.traced {
		o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	}
	r, err := workloads[workload](o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return r
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and expects every operation to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := smallRun(t, w, options{traced: traced})
			if r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w, traced, r.attempted, r.failed, r.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, name := range want {
				if _, ok := r.metrics[name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				}
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(r.metrics), len(want))
			}
			if !traced {
				for _, name := range endToEnd {
					if r.metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, name, r.metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptPixelFails flips one byte of one checked frame after
// delivery; the run must count a failed operation.
func TestCorruptPixelFails(t *testing.T) {
	for _, w := range workloadNames {
		r := smallRun(t, w, options{corruptPixel: true})
		if r.failed == 0 {
			t.Errorf("%s: a corrupted pixel went unnoticed (attempted %d)", w, r.attempted)
		}
	}
}

// TestDroppedFrameFails discards one delivered frame; the run must
// count a failed operation.
func TestDroppedFrameFails(t *testing.T) {
	for _, w := range workloadNames {
		r := smallRun(t, w, options{dropFrame: true})
		if r.failed == 0 {
			t.Errorf("%s: a dropped frame went unnoticed (attempted %d)", w, r.attempted)
		}
	}
}

// TestQuantileMatchesPython pins quantile to Python's
// statistics.quantiles(values, n=4), which the steadiness check uses.
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	q1, med, q3 := quantile(xs, 0.25), median(xs), quantile(xs, 0.75)
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, med, q3)
	}
}
