package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/scenes"
	"nowrender/internal/service"
	"nowrender/internal/tga"
	"nowrender/internal/timeline"
)

// serveShape is serve-mix's input: two closed-loop clients, each running
// rounds of one cold render of a distinct short Newton animation and
// replays of its own finished jobs.
type serveShape struct {
	w, h           int
	frames         int // frames per job: [0, frames) of newton:N
	clients        int
	replays        int     // replays per round
	nominalRound   float64 // wall time of one round on a 2-core reference host
	minRounds      int     // enough jobs that ten lie beyond job_s_p90
	checked        int     // cold frames compared with the reference per run
	chunks         int     // the rounds run in this many chunks
	setupsPerBatch int     // set-up-only cycles timed before each chunk
	firstAnimLen   int     // N of client 0's first cold job; N grows by clients
	cacheBudget    int64
	maxConcurrent  int
	fleet          int
}

func newServeShape(small bool) serveShape {
	s := serveShape{w: 120, h: 160, frames: 4, clients: 2, replays: 3,
		nominalRound: 0.45, minRounds: 17, checked: 4, chunks: 8, setupsPerBatch: 80,
		firstAnimLen: 8, cacheBudget: 1 << 30, maxConcurrent: 2, fleet: 2}
	if small {
		s.w, s.h, s.frames, s.minRounds, s.checked, s.setupsPerBatch = 24, 32, 3, 2, 2, 2
	}
	return s
}

// serveJob is one request: a POST, its SSE stream up to the terminal
// event, and a fetch of every frame.
type serveJob struct {
	client, round int
	replay        bool
	animLen       int // N of newton:N
	id            string
	frames        [][]byte // TGA bodies as fetched
	wall          time.Duration
	first         time.Duration
	submit        time.Duration
	events        time.Duration
	fetch         []time.Duration
	status        service.Status
	problems      []string
}

func (j *serveJob) spec(sh serveShape) service.JobSpec {
	return service.JobSpec{
		Scene: fmt.Sprintf("newton:%d", j.animLen), W: sh.w, H: sh.h, EndFrame: sh.frames,
		Scheme: "seqdiv-static", Driver: "local", Threads: 1,
		Tenant: fmt.Sprintf("client%d", j.client),
	}
}

// serveSession is a set-up service behind its HTTP handler.
type serveSession struct {
	svc  *service.Service
	srv  *http.Server
	ln   net.Listener
	base string
	done chan error
	taps *serveTaps
}

// serveTaps wraps the local-driver worker connections of traced rounds.
type serveTaps struct {
	on    atomic.Bool
	spans *spanLog
	mu    sync.Mutex
	all   []*tapConn
}

func (t *serveTaps) wrap(name string, c msg.Conn) msg.Conn {
	if t == nil || !t.on.Load() {
		return c
	}
	tap := &tapConn{Conn: c, spans: t.spans, track: "bench/msg.worker/" + name}
	t.mu.Lock()
	t.all = append(t.all, tap)
	t.mu.Unlock()
	return tap
}

// setupServe constructs the service and its listener and returns once
// /healthz answers.
func setupServe(sh serveShape, taps *serveTaps) (*serveSession, error) {
	cfg := service.Config{
		MaxConcurrent: sh.maxConcurrent, FleetCapacity: sh.fleet,
		Workers: sh.fleet, Threads: 1, DefaultDriver: "local",
		CacheBytes: sh.cacheBudget, WireDelta: true, WireSpanCodec: true,
	}
	if taps != nil {
		cfg.FaultWrap = taps.wrap
	}
	svc := service.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &serveSession{svc: svc, srv: &http.Server{Handler: svc.Handler()}, ln: ln,
		base: "http://" + ln.Addr().String(), done: make(chan error, 1), taps: taps}
	go func() { s.done <- s.srv.Serve(ln) }()
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(s.base + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return s, nil
}

// close shuts the server and the service down and waits for the server
// goroutine.
func (s *serveSession) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Println("wallbench: serve shutdown:", err)
	}
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Println("wallbench: serve:", err)
	}
	s.svc.Close()
}

// newHTTPClient gives each closed-loop client one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// doJob runs one request end to end and records its phases.
func doJob(c *http.Client, base string, sh serveShape, j *serveJob, spans *spanLog) error {
	body, err := json.Marshal(j.spec(sh))
	if err != nil {
		return err
	}
	track := fmt.Sprintf("bench/service.client%d", j.client)
	t0 := time.Now()
	resp, err := c.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s", resp.Status)
	}
	j.id = st.ID
	tSubmit := time.Now()
	j.submit = tSubmit.Sub(t0)
	spans.add(track, timeline.OpEnqueue, -1, t0, tSubmit, int64(j.round))

	terminal, err := followEvents(c, base, j, t0)
	if err != nil {
		return err
	}
	tEvents := time.Now()
	j.events = tEvents.Sub(tSubmit)
	spans.add(track, timeline.OpRecv, -1, tSubmit, tEvents, int64(j.round))
	if terminal != "done" {
		j.problems = append(j.problems, fmt.Sprintf("job %s ended %q", j.id, terminal))
	}

	j.frames = make([][]byte, sh.frames)
	for f := 0; f < sh.frames; f++ {
		tf := time.Now()
		resp, err := c.Get(fmt.Sprintf("%s/jobs/%s/frames/%d", base, j.id, f))
		if err != nil {
			return err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			j.problems = append(j.problems, fmt.Sprintf("job %s frame %d: %s", j.id, f, resp.Status))
		}
		end := time.Now()
		j.fetch = append(j.fetch, end.Sub(tf))
		spans.add(track, timeline.OpResult, f, tf, end, int64(len(data)))
		j.frames[f] = data
	}
	j.wall = time.Since(t0)
	return nil
}

// followEvents reads the job's SSE stream to its terminal event and
// records when the first frame became available.
func followEvents(c *http.Client, base string, j *serveJob, t0 time.Time) (string, error) {
	resp, err := c.Get(base + "/jobs/" + j.id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "frame":
			if j.first == 0 {
				j.first = time.Since(t0)
			}
		case "status":
			// A job finished before the subscription opens with its
			// terminal snapshot: every frame is available from here.
			var st service.Status
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return "", fmt.Errorf("events: %w", err)
			}
			if st.State.Terminal() {
				if j.first == 0 && st.FramesDone > 0 {
					j.first = time.Since(t0)
				}
				return string(st.State), nil
			}
		case "queued", "started", "retrying":
		default:
			return event, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events: stream for %s ended without a terminal event", j.id)
}

// fetchStatus reads the job's final status (outside the job's timing).
func fetchStatus(c *http.Client, base string, j *serveJob) error {
	resp, err := c.Get(base + "/jobs/" + j.id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(&j.status)
}

// client runs one closed-loop client's script: rounds of one cold job
// followed by replays of its own finished cold jobs chosen by the seed.
func client(c *http.Client, base string, sh serveShape, id, rounds int, rng *rand.Rand, firstRound int, spans *spanLog) ([]*serveJob, error) {
	var jobs, colds []*serveJob
	do := func(j *serveJob) error {
		if err := doJob(c, base, sh, j, spans); err != nil {
			return fmt.Errorf("client %d round %d: %w", id, j.round, err)
		}
		if err := fetchStatus(c, base, j); err != nil {
			return fmt.Errorf("client %d status: %w", id, err)
		}
		jobs = append(jobs, j)
		return nil
	}
	for round := firstRound; round < firstRound+rounds; round++ {
		cold := &serveJob{client: id, round: round, animLen: sh.firstAnimLen + sh.clients*round + id}
		if err := do(cold); err != nil {
			return nil, err
		}
		colds = append(colds, cold)
		for k := 0; k < sh.replays; k++ {
			pick := colds[rng.Intn(len(colds))]
			if err := do(&serveJob{client: id, round: round, replay: true, animLen: pick.animLen}); err != nil {
				return nil, err
			}
		}
	}
	return jobs, nil
}

// checkServeJob verifies one job against the method's properties and
// against the cold job it replays.
func checkServeJob(sh serveShape, j *serveJob, cold map[int]*serveJob) []string {
	bad := append([]string(nil), j.problems...)
	st := j.status
	if st.State != "done" || st.FramesDone != sh.frames || st.FramesTotal != sh.frames {
		bad = append(bad, fmt.Sprintf("job %s: state %s, %d/%d frames", j.id, st.State, st.FramesDone, st.FramesTotal))
	}
	if j.replay {
		if st.RaysTraced != 0 || st.CacheHits != sh.frames {
			bad = append(bad, fmt.Sprintf("replay %s: rays_traced %d, cache_hits %d; want 0 and %d", j.id, st.RaysTraced, st.CacheHits, sh.frames))
		}
	} else if st.CacheHits != 0 || st.CoalescedFrames != 0 || st.RaysTraced == 0 {
		bad = append(bad, fmt.Sprintf("cold job %s: cache_hits %d, coalesced %d, rays %d; want a full render", j.id, st.CacheHits, st.CoalescedFrames, st.RaysTraced))
	}
	if len(j.frames) != sh.frames {
		bad = append(bad, fmt.Sprintf("job %s: client holds %d of %d frames", j.id, len(j.frames), sh.frames))
	}
	for f, data := range j.frames {
		if len(data) == 0 {
			bad = append(bad, fmt.Sprintf("job %s frame %d: empty body", j.id, f))
			continue
		}
		img, err := tga.Decode(bytes.NewReader(data))
		if err != nil || img.W != sh.w || img.H != sh.h {
			bad = append(bad, fmt.Sprintf("job %s frame %d: not a %dx%d TGA (%v)", j.id, f, sh.w, sh.h, err))
			continue
		}
		if j.replay {
			if orig := cold[j.animLen]; orig == nil || f >= len(orig.frames) || !bytes.Equal(data, orig.frames[f]) {
				bad = append(bad, fmt.Sprintf("replay %s frame %d differs from the render it replays", j.id, f))
			}
		}
	}
	return bad
}

// runServe runs serve-mix.
func runServe(o options) (*run, error) {
	sh := newServeShape(o.small)
	r := newRun()
	rng := rand.New(rand.NewSource(o.seed))
	rounds := jobCount(o.seconds, sh.nominalRound, sh.minRounds)
	var spans *spanLog
	var taps *serveTaps
	if o.traced {
		spans = newSpanLog()
		taps = &serveTaps{spans: spans}
	}

	// Set-up is timed alone, in one untimed batch, then one batch before
	// each chunk of rounds and one after the last, so the batches sample
	// the whole run.
	setupCycle := func() (time.Duration, error) {
		t0 := time.Now()
		s, err := setupServe(sh, nil)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		s.close()
		return d, nil
	}
	if _, err := setupBatch(sh.setupsPerBatch, setupCycle); err != nil {
		return nil, err
	}
	s, err := setupServe(sh, taps)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()

	// Warm-up: one untimed round per client, on animations the measured
	// rounds never use.
	if _, err := phase(s, sh, 1, rounds, rng, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// The rounds run in chunks, each after a set-up batch. The traced
	// run interleaves them untraced (the overhead baseline) and traced
	// with connection taps and spans on, in the order U T T U.
	chunk := (rounds + sh.chunks - 1) / sh.chunks
	var setups []float64
	base, traced := &phaseResult{}, &phaseResult{}
	for first, k := 0, 0; first < rounds; first, k = first+chunk, k+1 {
		setup, err := setupBatch(sh.setupsPerBatch, setupCycle)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		n := min(chunk, rounds-first)
		on := o.traced && abba(k)
		var chunkSpans *spanLog
		if on {
			chunkSpans = spans
		}
		if taps != nil {
			taps.on.Store(on)
		}
		p, err := phase(s, sh, n, first, rng, chunkSpans)
		if err != nil {
			return nil, err
		}
		if on {
			traced.add(p)
		} else {
			base.add(p)
		}
	}
	setup, err := setupBatch(sh.setupsPerBatch, setupCycle)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setup)
	if o.dropFrame && len(base.jobs) > 0 {
		j := base.jobs[len(base.jobs)-1]
		j.frames = j.frames[:len(j.frames)-1]
	}

	// Checks: properties of every job, and a seeded sample of cold frames
	// against the independent reference render.
	all := append(append([]*serveJob(nil), base.jobs...), traced.jobs...)
	cold := map[int]*serveJob{}
	var colds []*serveJob
	for _, j := range all {
		if !j.replay {
			cold[j.animLen] = j
			colds = append(colds, j)
		}
	}
	refProblems := map[*serveJob][]string{}
	var refs []refFrame
	var builds []float64
	for k := 0; k < sh.checked && len(colds) > 0; k++ {
		j := colds[rng.Intn(len(colds))]
		f := rng.Intn(sh.frames)
		tb := time.Now()
		sc, err := scenes.FromSpec(fmt.Sprintf("newton:%d", j.animLen))
		if err != nil {
			return nil, err
		}
		builds = append(builds, ms(time.Since(tb)))
		ref, err := renderReference(sc, f, sh.w, sh.h)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
		if o.corruptPixel && k == 0 {
			j.frames[f] = append([]byte(nil), j.frames[f]...)
			j.frames[f][len(j.frames[f])/2] ^= 0x40
		}
		img, err := tga.Decode(bytes.NewReader(j.frames[f]))
		if err != nil {
			refProblems[j] = append(refProblems[j], fmt.Sprintf("job %s frame %d: %v", j.id, f, err))
			continue
		}
		if p := comparePixels(fmt.Sprintf("job %s frame %d", j.id, f), img, ref.img); p != "" {
			refProblems[j] = append(refProblems[j], p)
		}
	}
	for _, j := range all {
		r.op(append(checkServeJob(sh, j, cold), refProblems[j]...))
	}

	// Method property, and in the traced run the coherence layer: the
	// engine replayed over one cold job's frames (full frame region).
	sc, err := scenes.FromSpec(fmt.Sprintf("newton:%d", colds[0].animLen))
	if err != nil {
		return nil, err
	}
	reps := 1
	if o.traced {
		reps = probeReps
	}
	cp, err := probeCoherence(sc, sh.w, sh.h, fb.NewRect(0, 0, sh.w, sh.h), sh.frames, reps, nil, spans)
	if err != nil {
		return nil, err
	}
	r.op(cp.problems)
	if !o.traced {
		serveEndToEnd(r, base, median(setups))
		return r, nil
	}
	servePerLayer(r, s, sh, base, traced, refs, builds, cp)
	n, err := spans.write(o.traceOut, map[string]string{"workload": "serve-mix", "seed": fmt.Sprint(o.seed)})
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d events written to %s\n", n, o.traceOut)
	return r, nil
}

// phaseResult is one timed stretch of both clients' scripts.
type phaseResult struct {
	jobs    []*serveJob
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
	busy    float64 // worker busy seconds from /metrics
}

// phase runs rounds rounds of every client's script concurrently and
// times the whole stretch. Round r's cold job renders newton:N with N
// fixed by r and the client, so every cold job is a distinct animation.
func phase(s *serveSession, sh serveShape, rounds, firstRound int, rng *rand.Rand, spans *spanLog) (*phaseResult, error) {
	// Each client draws its replay picks from its own generator, seeded
	// from the run's, so a script does not depend on the interleaving.
	rngs := make([]*rand.Rand, sh.clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(rng.Int63()))
	}
	busy0 := workerBusy(s.base)
	runtime.GC()
	p := &phaseResult{}
	alloc0 := totalAllocMB()
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	out := make([][]*serveJob, sh.clients)
	errs := make([]error, sh.clients)
	for i := 0; i < sh.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newHTTPClient()
			defer c.CloseIdleConnections()
			out[i], errs[i] = client(c, s.base, sh, i, rounds, rngs[i], firstRound, spans)
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.allocMB = totalAllocMB() - alloc0
	p.busy = workerBusy(s.base) - busy0
	for i := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		p.jobs = append(p.jobs, out[i]...)
	}
	return p, nil
}

// add accumulates another phase into p.
func (p *phaseResult) add(q *phaseResult) {
	p.jobs = append(p.jobs, q.jobs...)
	p.wall += q.wall
	p.cpu += q.cpu
	p.allocMB += q.allocMB
	p.busy += q.busy
}

// workerBusy sums nowrender_worker_busy_seconds_total from /metrics.
func workerBusy(base string) float64 {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sum := 0.0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "nowrender_worker_busy_seconds_total{") {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// serveEndToEnd reports the untraced run's end-to-end metrics.
func serveEndToEnd(r *run, p *phaseResult, setup float64) {
	var walls, firsts []float64
	frames := 0
	for _, j := range p.jobs {
		walls = append(walls, j.wall.Seconds())
		firsts = append(firsts, j.first.Seconds())
		frames += len(j.frames)
	}
	r.set("frames_per_s", float64(frames)/p.wall.Seconds(), "1/s")
	r.set("cpu_s_per_frame", p.cpu.Seconds()/float64(frames), "s")
	r.set("job_s_p50", median(walls), "s")
	r.set("job_s_p90", quantile(walls, 0.9), "s")
	r.set("first_frame_s_p50", median(firsts), "s")
	r.set("peak_rss_mb", peakRSSMiB(), "MiB")
	r.set("setup_s", setup, "s")
}

// servePerLayer reports serve-mix's per-layer metrics and prints its
// ledger row.
func servePerLayer(r *run, s *serveSession, sh serveShape, base, traced *phaseResult, refs []refFrame, builds []float64, cp *coherenceProbe) {
	r.set("scenes.build_ms", median(builds), "ms")
	setReferenceLayers(r, refs, cp)

	var submits, queues, fetches, hitJobs []float64
	var coldFrames, coldJobs int
	var rays uint64
	for _, j := range append(append([]*serveJob(nil), base.jobs...), traced.jobs...) {
		submits = append(submits, ms(j.submit))
		queues = append(queues, float64(j.status.QueueDurationMS))
		for _, d := range j.fetch {
			fetches = append(fetches, ms(d))
		}
		if j.replay {
			hitJobs = append(hitJobs, ms(j.wall))
		} else {
			coldJobs++
			coldFrames += len(j.frames)
			rays += j.status.RaysTraced
		}
	}
	r.set("trace.rays_per_frame", float64(rays)/float64(coldFrames), "count")

	// The msg taps cover the traced chunks' rendered frames.
	var msgs, msgBytes, sendNs int64
	for _, t := range s.taps.all {
		msgs += t.sends.Load()
		msgBytes += t.sendBytes.Load()
		sendNs += t.sendNs.Load()
	}
	tracedCold := 0
	for _, j := range traced.jobs {
		if !j.replay {
			tracedCold += len(j.frames)
		}
	}
	fr := float64(tracedCold)
	r.set("msg.bytes_per_frame", float64(msgBytes)/fr, "B")
	r.set("msg.messages_per_frame", float64(msgs)/fr, "count")
	r.set("msg.send_ms_per_frame", float64(sendNs)/1e6/fr, "ms")
	r.set("msg.master_recv_wait_ms_per_frame", 0, "ms")
	ws := s.svc.WireStats()
	r.set("wire.delta_share", float64(ws.FramesDelta)/float64(ws.FramesFull+ws.FramesDelta), "ratio")
	r.set("wire.raw_to_wire_ratio", float64(ws.RawBytes)/float64(ws.WireBytes), "ratio")
	r.set("farm.worker_busy_share", base.busy/(float64(sh.fleet)*base.wall.Seconds()), "ratio")
	r.set("farm.tasks", 0, "count")

	r.set("service.submit_ms_p50", median(submits), "ms")
	r.set("service.queue_ms_p50", median(queues), "ms")
	r.set("fleet.lease_waits_per_job", float64(s.svc.FleetStats().Waits)/float64(coldJobs), "count")
	cs := s.svc.CacheStats()
	r.set("framecache.hit_share", float64(cs.Hits)/float64(cs.Hits+cs.Misses), "ratio")
	r.set("framecache.hit_job_ms_p50", median(hitJobs), "ms")
	r.set("service.frame_fetch_ms_p50", median(fetches), "ms")

	baseFrames, tracedFrames := 0, 0
	for _, j := range base.jobs {
		baseFrames += len(j.frames)
	}
	for _, j := range traced.jobs {
		tracedFrames += len(j.frames)
	}
	r.set("alloc_mb_per_frame", base.allocMB/float64(baseFrames), "MB")
	setOverhead(r, float64(baseFrames)/base.wall.Seconds(), float64(tracedFrames)/traced.wall.Seconds())
	printServeLedger(traced)
}

// printServeLedger prints serve-mix's ledger row from the traced chunks:
// each client-visible phase's ms per frame and share of job wall, and
// the unattributed remainder.
func printServeLedger(p *phaseResult) {
	var submit, events, fetch, wall, queue time.Duration
	frames := 0
	for _, j := range p.jobs {
		submit += j.submit
		events += j.events
		for _, d := range j.fetch {
			fetch += d
		}
		wall += j.wall
		queue += time.Duration(j.status.QueueDurationMS) * time.Millisecond
		frames += len(j.frames)
	}
	row := func(name string, d time.Duration) string {
		return fmt.Sprintf(" | %s %.2f ms/frame %.1f%%", name, ms(d)/float64(frames), 100*float64(d)/float64(wall))
	}
	fmt.Printf("ledger serve-mix (%d traced jobs, %d frames, base = summed job wall):%s%s (of which queue %.2f ms/frame)%s%s\n",
		len(p.jobs), frames, row("submit", submit), row("events", events), ms(queue)/float64(frames),
		row("fetch", fetch), row("unattributed", wall-submit-events-fetch))
}
