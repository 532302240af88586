package coherence

import (
	"runtime"
	"slices"
	"testing"

	"nowrender/internal/stats"

	"nowrender/internal/fb"
	"nowrender/internal/geom"
	"nowrender/internal/grid"
	"nowrender/internal/material"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// movingScene: a red ball slides across a checkered floor, camera
// stationary, light fixed — the canonical coherence-friendly animation.
func movingScene(frames int) *scene.Scene {
	s := scene.New("moving")
	s.Frames = frames
	s.Camera = scene.Camera{Pos: vm.V(0, 3, 10), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 55}
	s.Background = material.RGB(0.1, 0.1, 0.2)
	floor := material.NewMaterial(material.Checker{A: material.White, B: material.RGB(0.2, 0.2, 0.2)}, material.DefaultFinish())
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), floor, nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.Red),
		scene.KeyframeTrack{Keys: []scene.Keyframe{
			{Frame: 0, Pos: vm.V(-3, 0, 0)},
			{Frame: frames - 1, Pos: vm.V(3, 0, 0)},
		}})
	s.Add("pillar", geom.NewCylinder(vm.V(4, 0, -2), vm.V(4, 3, -2), 0.4),
		material.Matte(material.Blue), nil)
	s.AddLight("key", vm.V(6, 10, 8), material.White)
	return s
}

// staticScene: nothing moves at all.
func staticScene(frames int) *scene.Scene {
	s := scene.New("static")
	s.Frames = frames
	s.Camera = scene.Camera{Pos: vm.V(0, 2, 8), LookAt: vm.V(0, 1, 0), Up: vm.V(0, 1, 0), FOV: 55}
	s.Add("floor", geom.NewPlane(vm.V(0, 1, 0), 0), material.Matte(material.White), nil)
	s.Add("ball", geom.NewSphere(vm.V(0, 1, 0), 1), material.Matte(material.Green), nil)
	s.AddLight("key", vm.V(4, 8, 8), material.White)
	return s
}

const tw, th = 60, 48

func TestNewEngineValidation(t *testing.T) {
	s := movingScene(5)
	full := fb.NewRect(0, 0, tw, th)
	if _, err := NewEngine(s, tw, th, full, 0, 6, Options{}); err == nil {
		t.Error("frame range beyond scene accepted")
	}
	if _, err := NewEngine(s, tw, th, full, 3, 3, Options{}); err == nil {
		t.Error("empty frame range accepted")
	}
	if _, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw+1, th), 0, 5, Options{}); err == nil {
		t.Error("region outside frame accepted")
	}
	if _, err := NewEngine(s, tw, th, fb.Rect{}, 0, 5, Options{}); err == nil {
		t.Error("empty region accepted")
	}
}

func TestNewEngineRejectsMovingCamera(t *testing.T) {
	s := movingScene(5)
	s.CamTrack = scene.CameraFunc(func(f int) scene.Camera {
		c := scene.DefaultCamera()
		c.Pos = vm.V(float64(f), 2, 10)
		return c
	})
	if _, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 5, Options{}); err == nil {
		t.Error("moving camera accepted")
	}
}

func TestFramesMustBeConsecutive(t *testing.T) {
	s := movingScene(5)
	e, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	if _, err := e.RenderFrame(1, img); err == nil {
		t.Error("skipping frame 0 accepted")
	}
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RenderFrame(2, img); err == nil {
		t.Error("skipping frame 1 accepted")
	}
}

func TestFirstFrameRendersEverything(t *testing.T) {
	s := movingScene(3)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 3, Options{})
	img := fb.New(tw, th)
	rep, err := e.RenderFrame(0, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != tw*th || rep.Copied != 0 {
		t.Errorf("first frame rendered=%d copied=%d", rep.Rendered, rep.Copied)
	}
	if rep.Rays.Total() == 0 {
		t.Error("no rays counted")
	}
}

// The paper's central correctness claim: coherence must not change the
// image. Render the whole animation both ways and compare pixels.
func TestCoherentRenderPixelIdentical(t *testing.T) {
	const frames = 6
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)

	var fullFrames []*fb.Framebuffer
	_, err := FullRender(s, tw, th, full, 0, frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			fullFrames = append(fullFrames, img.Clone())
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	e, err := NewEngine(s, tw, th, full, 0, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	savedRendered := 0
	frameIdx := 0
	_, err = e.RenderSequence(func(f int, img *fb.Framebuffer, rep FrameReport) error {
		if !img.Equal(fullFrames[frameIdx]) {
			t.Errorf("frame %d: coherent render differs from full render in %d pixels",
				f, img.DiffCount(fullFrames[frameIdx]))
		}
		savedRendered += rep.Rendered
		frameIdx++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// And coherence must actually save work on this scene.
	if savedRendered >= frames*tw*th {
		t.Errorf("coherence saved nothing: rendered %d of %d pixels",
			savedRendered, frames*tw*th)
	}
}

func TestStaticSceneSecondFrameFree(t *testing.T) {
	s := staticScene(3)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 3, Options{})
	img := fb.New(tw, th)
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	rep, err := e.RenderFrame(1, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != 0 {
		t.Errorf("static scene re-rendered %d pixels in frame 1", rep.Rendered)
	}
	if rep.Copied != tw*th {
		t.Errorf("copied %d, want %d", rep.Copied, tw*th)
	}
	if rep.Rays.Total() != 0 {
		t.Errorf("static frame cast %d rays", rep.Rays.Total())
	}
}

// The predicted dirty set must be a superset of the actually-changed
// pixels (conservativeness; Figure 2(b) covers 2(a)).
func TestPredictedDirtySupersetOfActual(t *testing.T) {
	const frames = 5
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)

	var fullFrames []*fb.Framebuffer
	if _, err := FullRender(s, tw, th, full, 0, frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			fullFrames = append(fullFrames, img.Clone())
			return nil
		}); err != nil {
		t.Fatal(err)
	}

	e, _ := NewEngine(s, tw, th, full, 0, frames, Options{})
	img := fb.New(tw, th)
	for f := 0; f < frames-1; f++ {
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		mask := e.DirtyMask()
		// Compare actual pixel change f -> f+1 against prediction.
		missed := 0
		for y := 0; y < th; y++ {
			for x := 0; x < tw; x++ {
				ar, ag, ab := fullFrames[f].At(x, y)
				br, bg, bb := fullFrames[f+1].At(x, y)
				changed := ar != br || ag != bg || ab != bb
				if changed && !mask[y*tw+x] {
					missed++
				}
			}
		}
		if missed > 0 {
			t.Errorf("frame %d->%d: %d changed pixels not predicted dirty", f, f+1, missed)
		}
	}
}

func TestRegionRestrictsWork(t *testing.T) {
	s := movingScene(3)
	region := fb.NewRect(10, 8, 30, 24)
	e, err := NewEngine(s, tw, th, region, 0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	rep, err := e.RenderFrame(0, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rendered != region.Area() {
		t.Errorf("rendered %d, want region area %d", rep.Rendered, region.Area())
	}
	// Pixels outside the region stay untouched (black).
	if r, g, b := img.At(0, 0); r != 0 || g != 0 || b != 0 {
		t.Error("pixel outside region was written")
	}
}

func TestRegionRenderMatchesFullRenderInsideRegion(t *testing.T) {
	const frames = 4
	s := movingScene(frames)
	region := fb.NewRect(15, 10, 45, 38)

	var fullFrames []*fb.Framebuffer
	if _, err := FullRender(s, tw, th, fb.NewRect(0, 0, tw, th), 0, frames, 1,
		func(f int, img *fb.Framebuffer, _ stats.RayCounters) error {
			fullFrames = append(fullFrames, img.Clone())
			return nil
		}); err != nil {
		t.Fatal(err)
	}

	e, _ := NewEngine(s, tw, th, region, 0, frames, Options{})
	for f := 0; f < frames; f++ {
		img := fb.New(tw, th)
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		for y := region.Y0; y < region.Y1; y++ {
			for x := region.X0; x < region.X1; x++ {
				ar, ag, ab := img.At(x, y)
				br, bg, bb := fullFrames[f].At(x, y)
				if ar != br || ag != bg || ab != bb {
					t.Fatalf("frame %d pixel (%d,%d): region render differs", f, x, y)
				}
			}
		}
	}
}

func TestMovingLightDirtiesEverything(t *testing.T) {
	s := staticScene(3)
	s.Lights[0].Track = scene.FuncTrack{F: func(f int) vm.Transform {
		return vm.NewTransform(vm.Translate(float64(f), 0, 0))
	}}
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 3, Options{})
	img := fb.New(tw, th)
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	mask := e.DirtyMask()
	for i, d := range mask {
		if !d {
			t.Fatalf("pixel %d not dirty despite moving light", i)
		}
	}
}

func TestBlockGranularityDilates(t *testing.T) {
	const frames = 3
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)

	pixel, _ := NewEngine(s, tw, th, full, 0, frames, Options{})
	block, _ := NewEngine(s, tw, th, full, 0, frames, Options{BlockGranularity: 8})
	img := fb.New(tw, th)
	if _, err := pixel.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	img2 := fb.New(tw, th)
	if _, err := block.RenderFrame(0, img2); err != nil {
		t.Fatal(err)
	}
	pm, bm := pixel.DirtyMask(), block.DirtyMask()
	pCount, bCount := 0, 0
	for i := range pm {
		if pm[i] {
			pCount++
			if !bm[i] {
				t.Fatal("block mask not a superset of pixel mask")
			}
		}
		if bm[i] {
			bCount++
		}
	}
	if bCount <= pCount {
		t.Errorf("block granularity did not dilate: pixel=%d block=%d", pCount, bCount)
	}
	// Block mode still renders correct images (it only re-renders more).
	repPixel, err := pixel.RenderFrame(1, img)
	if err != nil {
		t.Fatal(err)
	}
	repBlock, err := block.RenderFrame(1, img2)
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(img2) {
		t.Error("block-granular render differs from pixel-granular")
	}
	if repBlock.Rendered < repPixel.Rendered {
		t.Error("block mode rendered fewer pixels than pixel mode")
	}
}

func TestRegistrationAccounting(t *testing.T) {
	s := movingScene(4)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 4, Options{})
	img := fb.New(tw, th)
	rep0, err := e.RenderFrame(0, img)
	if err != nil {
		t.Fatal(err)
	}
	n0 := e.RegistrationCount()
	if n0 == 0 {
		t.Fatal("no registrations after first frame")
	}
	// Every pixel was traced once, so every registration is live.
	if uint64(n0) != rep0.Registrations {
		t.Errorf("live registrations %d after the first frame, made %d", n0, rep0.Registrations)
	}
	mask := e.DirtyMask()
	before := append([]int32(nil), e.regs...)
	rep1, err := e.RenderFrame(1, img)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Rendered == 0 || rep1.Copied == 0 {
		t.Fatalf("frame 1 rendered %d, copied %d: want a partial frame", rep1.Rendered, rep1.Copied)
	}
	// A re-traced pixel's registrations replace its old ones; a copied
	// pixel keeps its own.
	var kept, replaced int
	for p, dirty := range mask {
		if dirty {
			replaced += int(before[p])
			continue
		}
		if e.regs[p] != before[p] {
			t.Fatalf("copied pixel %d: registrations %d, had %d", p, e.regs[p], before[p])
		}
		kept += int(e.regs[p])
	}
	if n1 := e.RegistrationCount(); n1 != kept+int(rep1.Registrations) || n1 != n0-replaced+int(rep1.Registrations) {
		t.Errorf("live registrations %d after frame 1: kept %d + made %d, or %d - %d replaced + made",
			n1, kept, rep1.Registrations, n0, replaced)
	}
}

func TestDisableShadowRegistrationIsCheaperButRegistersLess(t *testing.T) {
	s := movingScene(3)
	full := fb.NewRect(0, 0, tw, th)
	withShadow, _ := NewEngine(s, tw, th, full, 0, 3, Options{})
	without, _ := NewEngine(s, tw, th, full, 0, 3, Options{DisableShadowRegistration: true})
	img := fb.New(tw, th)
	if _, err := withShadow.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	if _, err := without.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	if without.RegistrationCount() >= withShadow.RegistrationCount() {
		t.Errorf("shadow registration off (%d) should register fewer than on (%d)",
			without.RegistrationCount(), withShadow.RegistrationCount())
	}
}

func TestRenderSequenceAggregates(t *testing.T) {
	s := movingScene(4)
	e, _ := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, 4, Options{})
	emitted := 0
	run, err := e.RenderSequence(func(f int, img *fb.Framebuffer, rep FrameReport) error {
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 4 || len(run.Frames) != 4 {
		t.Errorf("emitted %d frames, stats have %d", emitted, len(run.Frames))
	}
	total := run.TotalRays()
	if total.Total() == 0 {
		t.Error("no rays in run stats")
	}
	first, _ := run.FirstFrame()
	if first.Rendered != tw*th {
		t.Error("first frame stats wrong")
	}
}

// Coherent rendering must stay pixel-identical with adaptive
// antialiasing enabled (the AA samples are deterministic per pixel).
func TestCoherentRenderPixelIdenticalWithAA(t *testing.T) {
	const frames = 4
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)
	opts := Options{AAThreshold: 0.15, AASamples: 6}

	// Reference: per-frame full render with the same AA settings.
	var want []*fb.Framebuffer
	for f := 0; f < frames; f++ {
		ft, err := trace.New(s, f, trace.Options{AAThreshold: 0.15, AASamples: 6})
		if err != nil {
			t.Fatal(err)
		}
		img := fb.New(tw, th)
		ft.RenderFull(img)
		want = append(want, img)
	}

	e, err := NewEngine(s, tw, th, full, 0, frames, opts)
	if err != nil {
		t.Fatal(err)
	}
	saved := 0
	for f := 0; f < frames; f++ {
		img := fb.New(tw, th)
		rep, err := e.RenderFrame(f, img)
		if err != nil {
			t.Fatal(err)
		}
		saved += rep.Copied
		if !img.Equal(want[f]) {
			t.Errorf("frame %d: AA coherent render differs in %d pixels",
				f, img.DiffCount(want[f]))
		}
	}
	if saved == 0 {
		t.Error("coherence saved nothing with AA on")
	}
}

// Long animations must not accumulate registration state: the store is
// one due frame and one count per pixel, so after every frame each
// pixel's due frame lies beyond the frame just rendered (nothing overdue
// is left behind) and the heap the engine retains does not grow with the
// number of frames rendered.
func TestRegistrationMemoryBounded(t *testing.T) {
	const frames = 40
	s := movingScene(frames)
	e, err := NewEngine(s, tw, th, fb.NewRect(0, 0, tw, th), 0, frames, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(tw, th)
	var early uint64
	for f := 0; f < frames; f++ {
		if _, err := e.RenderFrame(f, img); err != nil {
			t.Fatal(err)
		}
		for p, d := range e.due {
			if d <= int32(f) {
				t.Fatalf("frame %d: pixel %d overdue since frame %d", f, p, d)
			}
		}
		if f == 9 {
			early = liveHeap()
		}
	}
	// The old per-voxel lists retained 8 bytes per registration, tens of
	// kilobytes per frame here; the slack only absorbs runtime noise.
	if late := liveHeap(); late > early+64<<10 {
		t.Errorf("live heap grew from %d B (frame 9) to %d B (frame %d)", early, late, frames-1)
	}
	runtime.KeepAlive(e)
}

// liveHeap returns the bytes of live heap objects after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// An engine's schedule covers its whole frame range, yet a frame's
// decisions depend only on the frames up to it: an engine over [0,12)
// must render, predict and count exactly as one over [0,5) does on their
// common frames, and an engine starting at 5 must render the rest of the
// sequence pixel-identically. The farm relies on both: truncated tasks
// stop early and the stolen remainder starts a fresh engine mid-range.
func TestScheduleHorizonPreservesCorrectness(t *testing.T) {
	const frames, cut = 12, 5
	s := movingScene(frames)
	full := fb.NewRect(0, 0, tw, th)
	long, err := NewEngine(s, tw, th, full, 0, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	head, err := NewEngine(s, tw, th, full, 0, cut, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := NewEngine(s, tw, th, full, cut, frames, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < frames; f++ {
		a := fb.New(tw, th)
		ra, err := long.RenderFrame(f, a)
		if err != nil {
			t.Fatal(err)
		}
		short := head
		if f >= cut {
			short = tail
		}
		b := fb.New(tw, th)
		rb, err := short.RenderFrame(f, b)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("frame %d: %d pixels differ between the long and the split engines", f, a.DiffCount(b))
		}
		if f >= cut-1 {
			continue // the head engine ends at cut; the tail starts from scratch
		}
		ra.Overhead, rb.Overhead = 0, 0
		if ra != rb {
			t.Errorf("frame %d: long engine reports %+v, short engine %+v", f, ra, rb)
		}
		if !slices.Equal(long.DirtyMask(), head.DirtyMask()) {
			t.Errorf("frame %d: next-frame masks differ", f)
		}
	}
}

// refEngine is the paper's algorithm as this package implemented it
// before due frames, kept as the oracle for TestDueFramesMatchVoxelLists:
// every traced pixel is appended to the pixel list of each voxel its
// rays cross, and between frames every still-valid entry on a voxel in
// which change occurs dirties its pixel. An entry is valid while its
// pixel has not been re-traced since; stale entries are pruned lazily.
// Serial, on the replicated tracer.
type refEngine struct {
	sc          *scene.Scene
	region      fb.Rect
	end         int
	opts        Options
	grid        *grid.Grid
	voxelPixels [][]refReg
	pixelStamp  []int32
	dirty       []bool
	prev        *fb.Framebuffer
	// Observer state: the pixel being traced, and the last (pixel, frame)
	// registered on each voxel, which dedups a pixel's rays.
	cur, frame           int32
	lastPixel, lastFrame []int32
	made                 uint64
}

type refReg struct{ pixel, frame int32 }

func newRefEngine(sc *scene.Scene, region fb.Rect, start, end int, opts Options, g *grid.Grid) *refEngine {
	r := &refEngine{
		sc: sc, region: region, end: end, opts: opts, grid: g,
		voxelPixels: make([][]refReg, g.NumVoxels()),
		pixelStamp:  make([]int32, region.Area()),
		dirty:       make([]bool, region.Area()),
		lastPixel:   make([]int32, g.NumVoxels()),
		lastFrame:   make([]int32, g.NumVoxels()),
	}
	for i := range r.pixelStamp {
		r.pixelStamp[i] = -1
	}
	for i := range r.lastFrame {
		r.lastFrame[i] = -1
	}
	for i := range r.dirty {
		r.dirty[i] = true
	}
	return r
}

func (r *refEngine) ObserveRay(ray vm.Ray, tHit float64) {
	if ray.Kind == vm.ShadowRay && r.opts.DisableShadowRegistration {
		return
	}
	r.grid.Walk(ray, 0, tHit, func(idx int, _, _ float64) bool {
		if r.lastPixel[idx] == r.cur && r.lastFrame[idx] == r.frame {
			return true
		}
		r.lastPixel[idx], r.lastFrame[idx] = r.cur, r.frame
		r.voxelPixels[idx] = append(r.voxelPixels[idx], refReg{r.cur, r.frame})
		r.made++
		return true
	})
}

func (r *refEngine) renderFrame(t *testing.T, f int, dst *fb.Framebuffer) FrameReport {
	ft, err := trace.New(r.sc, f, trace.Options{
		GridRes: r.opts.GridRes, SamplesPerPixel: r.opts.SamplesPerPixel,
		AAThreshold: r.opts.AAThreshold, AASamples: r.opts.AASamples,
	})
	if err != nil {
		t.Fatal(err)
	}
	wk := ft.NewWorker(r)
	rep := FrameReport{Frame: f}
	r.frame, r.made = int32(f), 0
	w := r.region.W()
	for y := r.region.Y0; y < r.region.Y1; y++ {
		for x := r.region.X0; x < r.region.X1; x++ {
			p := int32((y-r.region.Y0)*w + x - r.region.X0)
			if !r.dirty[p] {
				dst.CopyPixel(r.prev, x, y)
				rep.Copied++
				continue
			}
			r.pixelStamp[p], r.cur = int32(f), p
			dst.Set(x, y, wk.TracePixel(x, y, dst.W, dst.H))
			rep.Rendered++
		}
	}
	rep.Rays, rep.Registrations = wk.Counters, r.made
	clear(r.dirty)
	if f+1 < r.end {
		rep.ChangeVoxels = r.markChanges(f)
		if n := r.opts.BlockGranularity; n > 1 {
			blocks := map[[2]int]bool{}
			for p, d := range r.dirty {
				if d {
					blocks[[2]int{p % w / n, p / w / n}] = true
				}
			}
			for p := range r.dirty {
				r.dirty[p] = blocks[[2]int{p % w / n, p / w / n}]
			}
		}
		for _, d := range r.dirty {
			if d {
				rep.DirtyNext++
			}
		}
	}
	r.prev = dst.Clone()
	return rep
}

// markChanges dirties the valid pixels on every voxel a shape moved
// between f and f+1 truly overlaps at either frame, pruning stale
// entries from the lists it reads; it returns the number of such voxels.
func (r *refEngine) markChanges(f int) int {
	for _, l := range r.sc.Lights {
		if l.MovedBetween(f, f+1) {
			for p := range r.dirty {
				r.dirty[p] = true
			}
			return 0
		}
	}
	cands := map[int][]geom.Shape{}
	for _, o := range r.sc.Objects {
		if o.MovedBetween(f, f+1) {
			for _, fr := range [2]int{f, f + 1} {
				shape := o.ShapeAt(fr)
				r.grid.VoxelsOverlapping(shape.Bounds(), func(idx int) { cands[idx] = append(cands[idx], shape) })
			}
		}
	}
	changed := 0
	for idx, shapes := range cands {
		ix, iy, iz := r.grid.Coords(idx)
		if !slices.ContainsFunc(shapes, func(s geom.Shape) bool {
			return geom.ShapeOverlapsBox(s, r.grid.VoxelBounds(ix, iy, iz))
		}) {
			continue
		}
		changed++
		kept := r.voxelPixels[idx][:0]
		for _, reg := range r.voxelPixels[idx] {
			if r.pixelStamp[reg.pixel] == reg.frame {
				kept = append(kept, reg)
				r.dirty[reg.pixel] = true
			}
		}
		r.voxelPixels[idx] = kept
	}
	return changed
}

// registrationCount counts the valid entries on all lists.
func (r *refEngine) registrationCount() int {
	n := 0
	for _, regs := range r.voxelPixels {
		for _, reg := range regs {
			if r.pixelStamp[reg.pixel] == reg.frame {
				n++
			}
		}
	}
	return n
}

// intermittentScene is movingScene plus a ball that rests, moves for a
// few frames, then rests again, and optionally a light that moves
// between frames 6 and 7 only — so pixels fall due several frames after
// they were traced, not just on the next one.
func intermittentScene(frames int, movingLight bool) *scene.Scene {
	s := movingScene(frames)
	s.Add("hopper", geom.NewSphere(vm.V(0, 0.6, 0), 0.6), material.Matte(material.Green),
		scene.KeyframeTrack{Keys: []scene.Keyframe{
			{Frame: 0, Pos: vm.V(2, 0, 2)},
			{Frame: 3, Pos: vm.V(2, 0, 2)},
			{Frame: 5, Pos: vm.V(-2, 1, 2)},
		}})
	if movingLight {
		s.Lights[0].Track = scene.FuncTrack{F: func(f int) vm.Transform {
			if f <= 6 {
				return vm.NewTransform(vm.Translate(0, 0, 0))
			}
			return vm.NewTransform(vm.Translate(-3, 0, 0))
		}}
	}
	return s
}

// TestDueFramesMatchVoxelLists is the equivalence proof of the due-frame
// store: against the per-voxel pixel lists it replaced, every frame must
// produce identical pixels, the identical next-frame mask, and identical
// Registrations, ChangeVoxels, DirtyNext and live RegistrationCount,
// across thread counts, block granularity, adaptive antialiasing, a
// moving light and object-space shards.
func TestDueFramesMatchVoxelLists(t *testing.T) {
	const frames = 10
	region := fb.NewRect(3, 2, tw-1, th-3)
	cases := []struct {
		name        string
		opts        Options
		movingLight bool
	}{
		{"threads1", Options{Threads: 1}, false},
		{"threads4", Options{Threads: 4}, false},
		{"block4", Options{Threads: 2, BlockGranularity: 4}, false},
		{"aa", Options{Threads: 2, AAThreshold: 0.15, AASamples: 4}, false},
		{"movinglight", Options{Threads: 2}, true},
		{"objspace3", Options{Threads: 2, ObjSpaceShards: 3}, false},
		{"noshadowregs", Options{Threads: 1, DisableShadowRegistration: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := intermittentScene(frames, tc.movingLight)
			e, err := NewEngine(s, tw, th, region, 0, frames, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefEngine(s, region, 0, frames, tc.opts, e.Grid())
			var longWait bool
			for f := 0; f < frames; f++ {
				got, want := fb.New(tw, th), fb.New(tw, th)
				rg, err := e.RenderFrame(f, got)
				if err != nil {
					t.Fatal(err)
				}
				rw := ref.renderFrame(t, f, want)
				if !got.Equal(want) {
					t.Fatalf("frame %d: %d pixels differ from the voxel-list engine", f, got.DiffCount(want))
				}
				rg.Overhead, rg.Forwarded = 0, 0
				if rg != rw {
					t.Fatalf("frame %d: report %+v, voxel lists give %+v", f, rg, rw)
				}
				if !slices.Equal(e.DirtyMask(), ref.dirty) {
					t.Fatalf("frame %d: next-frame mask differs from the voxel-list engine", f)
				}
				if got, want := e.RegistrationCount(), ref.registrationCount(); got != want {
					t.Fatalf("frame %d: %d live registrations, voxel lists hold %d", f, got, want)
				}
				for _, d := range e.due {
					longWait = longWait || (d > int32(f+1) && d != never)
				}
			}
			if !longWait {
				t.Error("no pixel was ever due beyond the next frame; the scene does not exercise the schedule")
			}
		})
	}
}

// A steady-state frame allocates nothing that scales with the
// registrations it makes: the old store appended 16 bytes per
// registration (a tile buffer entry and a list entry), and this frame
// must stay under one byte per registration.
func TestSteadyStateFrameAllocs(t *testing.T) {
	const frames = 4
	const w, h = 2 * tw, 2 * th
	s := movingScene(frames)
	e, err := NewEngine(s, w, h, fb.NewRect(0, 0, w, h), 0, frames, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	img := fb.New(w, h)
	if _, err := e.RenderFrame(0, img); err != nil {
		t.Fatal(err)
	}
	for f := 1; f < frames; f++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := e.RenderFrame(f, img)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		if rep.Registrations < 10000 {
			t.Fatalf("frame %d made only %d registrations; too few to tell", f, rep.Registrations)
		}
		if alloc >= rep.Registrations {
			t.Errorf("frame %d allocated %d B for %d registrations", f, alloc, rep.Registrations)
		}
	}
}
