package main

import (
	"fmt"
	"strings"
	"time"

	"nowrender/internal/coherence"
	"nowrender/internal/fb"
	"nowrender/internal/scene"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
)

// coherenceProbe is a benchmark-side replay of one region of a job's
// frames through coherence.NewEngine/Engine.RenderFrame on one thread.
type coherenceProbe struct {
	keyFrame        time.Duration // frame 0: every pixel traced, registrations built
	traceRegion     time.Duration // trace.RenderRegion of the same region, frame 0
	frameMean       time.Duration // mean of the later, coherent frames
	changeDetect    time.Duration // mean FrameReport.Overhead
	registrations   float64       // mean per frame
	allocMBPerFrame float64
	resident        int
	copiedShare     float64
	problems        []string
}

// probeReps is how many times the traced run times the key frame and
// the plain render of the probe region.
const probeReps = 5

// probeCoherence replays frames [0, frames) of region of a w x h frame,
// checking that every frame renders or copies exactly the region and
// that the replayed pixels match the reference frames it covers. The key
// frame and the plain render of the same region are each timed reps
// times, every key frame on a fresh engine, and reported as medians: a
// single sample depends on how much of the heap the process has already
// faulted in.
func probeCoherence(sc *scene.Scene, w, h int, region fb.Rect, frames, reps int, refs []refFrame, spans *spanLog) (*coherenceProbe, error) {
	p := &coherenceProbe{}
	ft, err := trace.New(sc, 0, trace.Options{})
	if err != nil {
		return nil, err
	}
	scratch := fb.New(w, h)
	var plain, key []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		ft.RenderRegion(scratch, region)
		t1 := time.Now()
		spans.add("bench/trace.RenderRegion", timeline.OpFrame, 0, t0, t1, int64(region.Area()))
		plain = append(plain, float64(t1.Sub(t0)))
		if i == reps-1 {
			break // the last key frame starts the full replay below
		}
		e, err := coherence.NewEngine(sc, w, h, region, 0, frames, coherence.Options{Threads: 1})
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		if _, err := e.RenderFrame(0, fb.New(w, h)); err != nil {
			return nil, fmt.Errorf("coherence key frame: %w", err)
		}
		t1 = time.Now()
		spans.add("bench/coherence.RenderFrame", timeline.OpFrame, 0, t0, t1, int64(region.Area()))
		key = append(key, float64(t1.Sub(t0)))
	}
	p.traceRegion = time.Duration(median(plain))

	e, err := coherence.NewEngine(sc, w, h, region, 0, frames, coherence.Options{Threads: 1})
	if err != nil {
		return nil, err
	}
	dst := fb.New(w, h)
	area := region.Area()
	alloc0 := totalAllocMB()
	var later, overhead time.Duration
	var regs uint64
	copied := 0
	for f := 0; f < frames; f++ {
		t0 := time.Now()
		rep, err := e.RenderFrame(f, dst)
		dt := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("coherence replay frame %d: %w", f, err)
		}
		spans.add("bench/coherence.RenderFrame", timeline.OpFrame, f, t0, t0.Add(dt), int64(rep.Rendered))
		if rep.Rendered+rep.Copied != area {
			p.problems = append(p.problems, fmt.Sprintf("coherence frame %d: rendered %d + copied %d != region %d", f, rep.Rendered, rep.Copied, area))
		}
		if f == 0 {
			key = append(key, float64(dt))
		} else {
			later += dt
		}
		overhead += rep.Overhead
		regs += rep.Registrations
		copied += rep.Copied
		for _, r := range refs {
			if r.frame == f {
				if d := regionDiff(dst, r.img, region); d != "" {
					p.problems = append(p.problems, fmt.Sprintf("coherence replay frame %d: %s", f, d))
				}
			}
		}
	}
	p.keyFrame = time.Duration(median(key))
	p.allocMBPerFrame = (totalAllocMB() - alloc0) / float64(frames)
	if frames > 1 {
		p.frameMean = later / time.Duration(frames-1)
	}
	p.changeDetect = overhead / time.Duration(frames)
	p.registrations = float64(regs) / float64(frames)
	p.resident = e.RegistrationCount()
	p.copiedShare = float64(copied) / float64(area*frames)
	return p, nil
}

// regionDiff compares region of got against want.
func regionDiff(got, want *fb.Framebuffer, region fb.Rect) string {
	for y := region.Y0; y < region.Y1; y++ {
		for x := region.X0; x < region.X1; x++ {
			r1, g1, b1 := got.At(x, y)
			r2, g2, b2 := want.At(x, y)
			if r1 != r2 || g1 != g2 || b1 != b2 {
				return fmt.Sprintf("pixel (%d,%d) differs from the reference render", x, y)
			}
		}
	}
	return ""
}

// setReferenceLayers reports the trace layer from the reference renders
// and the coherence layer from the replay.
func setReferenceLayers(r *run, refs []refFrame, cp *coherenceProbe) {
	var resolve, render time.Duration
	var rays uint64
	for _, ref := range refs {
		resolve += ref.resolve
		render += ref.render
		rays += ref.rays
	}
	n := time.Duration(len(refs))
	r.set("trace.resolve_ms", ms(resolve/n), "ms")
	r.set("trace.frame_ms", ms(render/n), "ms")
	r.set("trace.mrays_per_s", float64(rays)/render.Seconds()/1e6, "Mray/s")
	r.set("coherence.key_frame_ms", ms(cp.keyFrame), "ms")
	r.set("coherence.key_frame_overhead", float64(cp.keyFrame)/float64(cp.traceRegion), "ratio")
	r.set("coherence.frame_ms", ms(cp.frameMean), "ms")
	r.set("coherence.change_detect_ms", ms(cp.changeDetect), "ms")
	r.set("coherence.registrations_per_frame", cp.registrations, "count")
	r.set("coherence.alloc_mb_per_frame", cp.allocMBPerFrame, "MB")
	r.set("coherence.registrations_resident", float64(cp.resident), "count")
	r.set("coherence.copied_share", cp.copiedShare, "ratio")
}

// tapStats folds the session's connection taps into the job.
func (j *farmJob) tapStats(s *farmSession) {
	for _, t := range s.workers {
		j.msgs += t.sends.Load()
		j.msgBytes += t.sendBytes.Load()
		j.sendNs += t.sendNs.Load()
	}
	for _, t := range s.masters {
		j.recvWaitNs += t.recvNs.Load()
	}
}

// farmPerLayer reports the traced farm run's per-layer metrics. Untraced
// jobs give the farm, allocation and overhead baselines; traced jobs
// give the msg taps and the program's timeline.
func farmPerLayer(r *run, sh farmShape, untraced, traced []*farmJob, refs []refFrame, builds []float64, cp *coherenceProbe) {
	r.set("scenes.build_ms", median(builds), "ms")
	setReferenceLayers(r, refs, cp)

	var frames, tasks int
	var rays uint64
	var msgs, msgBytes, sendNs, recvNs int64
	var full, delta, raw, wire uint64
	for _, j := range traced {
		frames += len(j.deliveries)
		tr := j.res.Run.TotalRays()
		rays += tr.Total()
		msgs += j.msgs
		msgBytes += j.msgBytes
		sendNs += j.sendNs
		recvNs += j.recvWaitNs
		full += j.res.Wire.FramesFull
		delta += j.res.Wire.FramesDelta
		raw += j.res.Wire.RawBytes
		wire += j.res.Wire.WireBytes
	}
	fr := float64(frames)
	r.set("trace.rays_per_frame", float64(rays)/fr, "count")
	r.set("msg.bytes_per_frame", float64(msgBytes)/fr, "B")
	r.set("msg.messages_per_frame", float64(msgs)/fr, "count")
	r.set("msg.send_ms_per_frame", float64(sendNs)/1e6/fr, "ms")
	r.set("msg.master_recv_wait_ms_per_frame", float64(recvNs)/1e6/fr, "ms")
	r.set("wire.delta_share", float64(delta)/float64(full+delta), "ratio")
	r.set("wire.raw_to_wire_ratio", float64(raw)/float64(wire), "ratio")

	var busy, capacity, uwall, twall time.Duration
	var uframes, tframes int
	var alloc float64
	for _, j := range untraced {
		for _, w := range j.res.Workers {
			busy += w.Busy
		}
		capacity += j.wall * time.Duration(sh.workers)
		tasks += j.res.TasksExecuted
		uwall += j.wall
		uframes += len(j.deliveries)
		alloc += j.allocMB
	}
	for _, j := range traced {
		twall += j.wall
		tframes += len(j.deliveries)
	}
	r.set("farm.worker_busy_share", float64(busy)/float64(capacity), "ratio")
	r.set("farm.tasks", float64(tasks)/float64(len(untraced)), "count")
	r.set("alloc_mb_per_frame", alloc/float64(uframes), "MB")
	setOverhead(r, float64(uframes)/uwall.Seconds(), float64(tframes)/twall.Seconds())
	setServiceLayersAbsent(r)
}

// setOverhead reports the traced run's own cost: how much faster the
// untraced steps delivered frames than the traced ones.
func setOverhead(r *run, untracedFPS, tracedFPS float64) {
	r.set("tracing.overhead_share", untracedFPS/tracedFPS-1, "ratio")
	fmt.Printf("frames_per_s untraced %.3f, traced %.3f (tracing overhead %+.1f%%)\n", untracedFPS, tracedFPS, 100*(untracedFPS/tracedFPS-1))
}

// setServiceLayersAbsent reports the service-path layers as 0 on the
// farm workloads, which do not run them.
func setServiceLayersAbsent(r *run) {
	r.set("service.submit_ms_p50", 0, "ms")
	r.set("service.queue_ms_p50", 0, "ms")
	r.set("fleet.lease_waits_per_job", 0, "count")
	r.set("framecache.hit_share", 0, "ratio")
	r.set("framecache.hit_job_ms_p50", 0, "ms")
	r.set("service.frame_fetch_ms_p50", 0, "ms")
}

// ledgerOps are the worker frame phases the program's timeline records,
// in pipeline order. Tile spans nest inside frame spans and are left out.
var ledgerOps = []timeline.Op{timeline.OpRecv, timeline.OpFrame, timeline.OpChangeDetect, timeline.OpEncode, timeline.OpSend}

// printFarmLedger prints the traced farm run's per-layer ledger row:
// each worker phase's ms per frame and share of worker wall time
// (workers x the RunMaster call), and the unattributed remainder.
func printFarmLedger(coherent bool, sh farmShape, traced []*farmJob) {
	sum := map[timeline.Op]int64{}
	var capacity int64
	frames := 0
	for _, j := range traced {
		capacity += int64(j.master) * int64(sh.workers)
		frames += len(j.deliveries)
		if j.res.Timeline == nil {
			continue
		}
		for _, td := range j.res.Timeline.Tracks {
			if td.Group() == "master" {
				continue
			}
			for _, e := range td.Events {
				if !e.Instant() {
					sum[e.Op] += e.Dur
				}
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s (%d traced jobs, %d frames, base = %d workers x RunMaster wall):", workloadName(coherent), len(traced), frames, sh.workers)
	var attributed int64
	for _, op := range ledgerOps {
		attributed += sum[op]
		fmt.Fprintf(&b, " | %s %.2f ms/frame %.1f%%", op, float64(sum[op])/1e6/float64(frames), 100*float64(sum[op])/float64(capacity))
	}
	rest := capacity - attributed
	fmt.Fprintf(&b, " | unattributed %.2f ms/frame %.1f%%", float64(rest)/1e6/float64(frames), 100*float64(rest)/float64(capacity))
	fmt.Println(b.String())
}
