package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"nowrender/internal/farm"
	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/scene"
	"nowrender/internal/scenes"
	"nowrender/internal/stats"
	"nowrender/internal/timeline"
)

// farmShape is the farm workloads' input: the paper's Newton run.
type farmShape struct {
	spec           string // scene spec shipped to the workers
	frames         int
	w, h           int
	blockW, blockH int // frame-division block
	workers        int
	checked        int // frames compared with the reference per job
	nominalJob     float64
	setupsPerBatch int // set-up-only cycles timed before each job
	warmFrames     int // frames of the untimed warm-up job
	replayFrames   int // coherence replay length in the untraced run
}

// newtonShape returns the farm input. nominalJob is the wall time of one
// job on a 2-core reference host; it converts -seconds into a fixed job
// count.
func newtonShape(small, coherent bool) farmShape {
	if small {
		return farmShape{spec: "newton:6", frames: 6, w: 48, h: 64, blockW: 16, blockH: 16,
			workers: 2, checked: 2, nominalJob: 1, setupsPerBatch: 2, warmFrames: 2, replayFrames: 3}
	}
	sh := farmShape{spec: "newton:45", frames: 45, w: 240, h: 320, blockW: 80, blockH: 80,
		workers: 2, checked: 3, nominalJob: 4.8, setupsPerBatch: 80, warmFrames: 6, replayFrames: 6}
	if coherent {
		sh.nominalJob = 4
	}
	return sh
}

// farmSession is one set-up farm: a listener and a hub holding every
// worker, the workers running in this process over loopback TCP exactly
// as cmd/nowworker runs them against `nowrender -mode master`.
type farmSession struct {
	scene   *scene.Scene // the master's copy, built during set-up
	ln      *msg.Listener
	hub     *msg.Hub
	wg      sync.WaitGroup
	errs    chan error
	workers []*tapConn // worker-side taps (traced jobs only)
	masters []*tapConn // master-side taps (traced jobs only)
}

// setupFarm builds the scene, opens the listener, starts the workers,
// ships them the scene and waits for each hello, until the hub holds
// every worker. It returns the session and the scene-build time.
func setupFarm(sh farmShape, spans *spanLog, job int) (*farmSession, time.Duration, error) {
	t0 := time.Now()
	kind, data, err := scenes.SpecPayload(sh.spec)
	if err != nil {
		return nil, 0, err
	}
	sc, err := scenes.FromPayload(kind, data)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	ln, err := msg.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &farmSession{scene: sc, ln: ln, hub: msg.NewHub(), errs: make(chan error, sh.workers)}
	traced := spans != nil
	if traced {
		s.workers = make([]*tapConn, sh.workers)
		s.masters = make([]*tapConn, sh.workers)
	}
	for i := 0; i < sh.workers; i++ {
		name := fmt.Sprintf("ws%d", i)
		var tap *tapConn
		if traced {
			tap = &tapConn{spans: spans, track: fmt.Sprintf("bench/msg.worker/j%02d-%s", job, name)}
			s.workers[i] = tap
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.errs <- runBenchWorker(ln.Addr(), name, tap)
		}()
	}
	for i := 0; i < sh.workers; i++ {
		conn, err := ln.Accept()
		if err != nil {
			s.close()
			return nil, 0, err
		}
		buf := msg.NewBuffer()
		buf.PackString(kind)
		buf.PackString(data)
		if err := conn.Send(msg.Message{Tag: farm.TagSceneSDL, Data: buf.Bytes()}); err != nil {
			conn.Close()
			s.close()
			return nil, 0, err
		}
		hello, err := conn.Recv()
		if err != nil || hello.Tag != farm.TagHello {
			conn.Close()
			s.close()
			return nil, 0, fmt.Errorf("worker %d: no hello (tag %d, %v)", i, hello.Tag, err)
		}
		var mc msg.Conn = &replayConn{Conn: conn, first: &hello}
		if traced {
			tap := &tapConn{Conn: mc, spans: spans, track: fmt.Sprintf("bench/msg.master/j%02d-tcp%02d", job, i)}
			s.masters[i] = tap
			mc = tap
		}
		if err := s.hub.Attach(fmt.Sprintf("tcp%02d", i), mc); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return s, build, nil
}

// runBenchWorker is cmd/nowworker's loop: dial, receive the scene, run
// the farm worker with one render thread.
func runBenchWorker(addr, name string, tap *tapConn) error {
	conn, err := msg.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	m, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("%s: waiting for scene: %w", name, err)
	}
	buf := msg.FromBytes(m.Data)
	kind, data := buf.UnpackString(), buf.UnpackString()
	if err := buf.Err(); err != nil {
		return err
	}
	sc, err := scenes.FromPayload(kind, data)
	if err != nil {
		return err
	}
	var c msg.Conn = conn
	if tap != nil {
		tap.Conn = conn
		c = tap
	}
	return farm.RunWorkerWithOptions(context.Background(), name, c, sc, farm.WorkerOptions{Threads: 1})
}

// close tears the session down and waits for every worker to exit.
func (s *farmSession) close() error {
	s.hub.Close()
	s.ln.Close()
	s.wg.Wait()
	close(s.errs)
	for err := range s.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// farmJob is one measured job: the whole animation through RunMaster.
type farmJob struct {
	res        *farm.Result
	frames     []*fb.Framebuffer // as delivered through OnFrame
	deliveries []int
	wall       time.Duration // issue to holding every frame
	master     time.Duration // the whole RunMaster call, worker shutdown included
	firstFrame time.Duration
	cpu        time.Duration
	allocMB    float64
	// Connection taps (traced jobs): worker sends and master receive
	// waits.
	msgs, msgBytes, sendNs, recvWaitNs int64
}

// runFarmJob issues one job over frames [start, end) on a set-up
// session: static frame division, dirty-span deltas with the static span
// codec, one render thread per worker.
func runFarmJob(s *farmSession, sh farmShape, coherent bool, start, end int, o options, rec *timeline.Recorder) (*farmJob, error) {
	cfg := farm.Config{
		Scene: s.scene, W: sh.w, H: sh.h,
		Scheme:     partition.FrameDivision{BlockW: sh.blockW, BlockH: sh.blockH},
		StartFrame: start, EndFrame: end,
		Coherence: coherent, Threads: 1, Workers: sh.workers,
		WireDelta: true, WireSpanCodec: true,
		Timeline: rec,
	}
	n := end - start
	j := &farmJob{frames: make([]*fb.Framebuffer, n), deliveries: make([]int, n)}
	var t0, last time.Time
	got := 0
	dropped := false
	cfg.OnFrame = func(f int, img *fb.Framebuffer) error {
		now := time.Now()
		i := f - start
		if i < 0 || i >= n {
			return fmt.Errorf("frame %d outside the job", f)
		}
		if got == 0 {
			j.firstFrame = now.Sub(t0)
		}
		got++
		last = now
		if o.dropFrame && !dropped && f == end-1 {
			dropped = true
			return nil
		}
		j.deliveries[i]++
		j.frames[i] = img
		return nil
	}
	alloc0 := totalAllocMB()
	cpu0 := cpuTime()
	t0 = time.Now()
	res, err := farm.RunMaster(cfg, s.hub)
	done := time.Now()
	j.master = done.Sub(t0)
	j.cpu = cpuTime() - cpu0
	j.allocMB = totalAllocMB() - alloc0
	if got == n {
		done = last
	}
	j.wall = done.Sub(t0)
	j.res = res
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("worker: %w", cerr)
	}
	return j, err
}

// checkFarmJob verifies one job's output: every frame delivered once and
// every pixel exactly once, no fault absorbed, the sampled frames
// byte-identical to the reference render, and ray counts consistent
// with the method.
func checkFarmJob(sh farmShape, coherent bool, j *farmJob, refs []refFrame, corrupt bool) []string {
	var bad []string
	for i, d := range j.deliveries {
		if d != 1 {
			bad = append(bad, fmt.Sprintf("frame %d delivered %d times", i, d))
		}
	}
	pixels := 0
	for _, w := range j.res.Workers {
		pixels += w.PixelsDone
	}
	if want := sh.frames * sh.w * sh.h; pixels != want {
		bad = append(bad, fmt.Sprintf("workers delivered %d pixels, want frames x w x h = %d", pixels, want))
	}
	if j.res.Faults.Any() {
		bad = append(bad, "farm absorbed faults on a healthy run: "+j.res.Faults.String())
	}
	if corrupt && len(refs) > 0 {
		corruptOne(j.frames[refs[0].frame])
	}
	var fcRays, refRays uint64
	for _, r := range refs {
		if p := comparePixels(fmt.Sprintf("frame %d", r.frame), j.frames[r.frame], r.img); p != "" {
			bad = append(bad, p)
		}
		rays := frameRays(j.res.Run, r.frame)
		if !coherent && rays != r.rays {
			bad = append(bad, fmt.Sprintf("frame %d: plain farm traced %d rays, reference %d", r.frame, rays, r.rays))
		}
		if r.frame > 0 {
			fcRays += rays
			refRays += r.rays
		}
	}
	if coherent && refRays > 0 && fcRays >= refRays {
		bad = append(bad, fmt.Sprintf("coherent farm traced %d rays on the checked frames, no fewer than plain tracing's %d", fcRays, refRays))
	}
	return bad
}

func frameRays(rs stats.RunStats, frame int) uint64 {
	for _, f := range rs.Frames {
		if f.Frame == frame {
			return f.Rays.Total()
		}
	}
	return 0
}

// runFarm runs newton-fc (coherent) or newton-plain.
func runFarm(o options, coherent bool) (*run, error) {
	sh := newtonShape(o.small, coherent)
	r := newRun()
	rng := rand.New(rand.NewSource(o.seed))
	checkedFrames := sampleFrames(rng, sh.frames, sh.checked)
	scene, err := scenes.FromSpec(sh.spec)
	if err != nil {
		return nil, err
	}
	refs := make([]refFrame, 0, len(checkedFrames))
	for _, f := range checkedFrames {
		ref, err := renderReference(scene, f, sh.w, sh.h)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}

	// Warm-up: one short job through the whole path, untimed.
	if err := warmFarm(sh, coherent); err != nil {
		return nil, err
	}
	var spans *spanLog
	if o.traced {
		spans = newSpanLog()
	}

	// Set-up is timed alone, in one untimed batch, then one batch before
	// each job and one after the last, so the batches sample the whole
	// run.
	var builds, setups []float64
	setupCycle := func() (time.Duration, error) {
		t0 := time.Now()
		s, build, err := setupFarm(sh, nil, 0)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		builds = append(builds, ms(build))
		if err := s.close(); err != nil {
			return 0, fmt.Errorf("set-up: worker: %w", err)
		}
		return d, nil
	}
	if _, err := setupBatch(sh.setupsPerBatch, setupCycle); err != nil {
		return nil, err
	}

	jobs := jobCount(o.seconds, sh.nominalJob, 2)
	if o.traced && jobs%2 == 1 {
		jobs++ // as many traced jobs as untraced ones
	}
	var untraced, traced []*farmJob
	for i := 0; i < jobs; i++ {
		// Traced runs interleave untraced jobs (the overhead baseline)
		// and jobs with taps and the program's timeline on, in the
		// order U T T U, so a drift in speed along the run cancels.
		tracedJob := o.traced && abba(i)
		var jobSpans *spanLog
		var rec *timeline.Recorder
		if tracedJob {
			jobSpans = spans
			rec = timeline.New(0)
		}
		setup, err := setupBatch(sh.setupsPerBatch, setupCycle)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		runtime.GC()
		t0 := time.Now()
		s, build, err := setupFarm(sh, jobSpans, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupEnd := time.Now()
		builds = append(builds, ms(build))
		spans.add("bench/setup", timeline.OpDispatch, -1, t0, setupEnd, int64(i))
		var recEpoch time.Time
		if rec != nil {
			recEpoch = time.Now()
		}
		j, err := runFarmJob(s, sh, coherent, 0, sh.frames, o, rec)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		if tracedJob {
			spans.add("bench/farm.RunMaster", timeline.OpFrame, -1, setupEnd, setupEnd.Add(j.wall), int64(i))
			spans.merge(fmt.Sprintf("j%02d", i), recEpoch, j.res.Timeline)
			j.tapStats(s)
			traced = append(traced, j)
		} else {
			untraced = append(untraced, j)
		}
		r.op(checkFarmJob(sh, coherent, j, refs, o.corruptPixel && i == 0))
		// Release the frames before the next job's set-up.
		j.frames, j.res.Frames = nil, nil
	}

	setup, err := setupBatch(sh.setupsPerBatch, setupCycle)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup)

	// Method property: a coherent replay renders + copies exactly the
	// region every frame (both workloads check it; the traced run also
	// times it).
	replay, reps := sh.replayFrames, 1
	if o.traced {
		replay, reps = sh.frames, probeReps
	}
	// The replayed block is the frame-division block at the centre of the
	// frame, where the cradle moves.
	blocks := fb.NewRect(0, 0, sh.w, sh.h).Blocks(sh.blockW, sh.blockH)
	cp, err := probeCoherence(scene, sh.w, sh.h, blocks[len(blocks)/2], replay, reps, refs, spans)
	if err != nil {
		return nil, err
	}
	r.op(cp.problems)

	if !o.traced {
		farmEndToEnd(r, untraced, median(setups))
		return r, nil
	}
	farmPerLayer(r, sh, untraced, traced, refs, builds, cp)
	printFarmLedger(coherent, sh, traced)
	n, err := spans.write(o.traceOut, map[string]string{"workload": workloadName(coherent), "seed": fmt.Sprint(o.seed)})
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d events written to %s\n", n, o.traceOut)
	return r, nil
}

func workloadName(coherent bool) string {
	if coherent {
		return "newton-fc"
	}
	return "newton-plain"
}

// warmFarm runs one short untimed job so heap growth, page faults and
// first-use initialisation happen before anything is timed.
func warmFarm(sh farmShape, coherent bool) error {
	s, _, err := setupFarm(sh, nil, 0)
	if err != nil {
		return fmt.Errorf("warm-up set-up: %w", err)
	}
	if _, err := runFarmJob(s, sh, coherent, 0, sh.warmFrames, options{}, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// farmEndToEnd reports the untraced run's end-to-end metrics.
func farmEndToEnd(r *run, jobs []*farmJob, setup float64) {
	var frames int
	var wall, cpu time.Duration
	var walls, firsts []float64
	for _, j := range jobs {
		frames += len(j.deliveries)
		wall += j.wall
		cpu += j.cpu
		walls = append(walls, j.wall.Seconds())
		firsts = append(firsts, j.firstFrame.Seconds())
	}
	r.set("frames_per_s", float64(frames)/wall.Seconds(), "1/s")
	r.set("cpu_s_per_frame", cpu.Seconds()/float64(frames), "s")
	r.set("job_s_p50", median(walls), "s")
	r.set("job_s_p90", quantile(walls, 0.9), "s")
	r.set("first_frame_s_p50", median(firsts), "s")
	r.set("peak_rss_mb", peakRSSMiB(), "MiB")
	r.set("setup_s", setup, "s")
}
