package coherence

import (
	"runtime"
	"sync"
	"sync/atomic"

	"nowrender/internal/fb"
	"nowrender/internal/grid"
	"nowrender/internal/timeline"
	"nowrender/internal/trace"
	vm "nowrender/internal/vecmath"
)

// threads resolves Options.Threads to a concrete pool size.
func (e *Engine) threads() int {
	if e.opts.Threads > 0 {
		return e.opts.Threads
	}
	return runtime.NumCPU()
}

// regCollector implements trace.RayObserver for one tile worker. While
// a pixel is traced it walks each of the pixel's rays through the
// registration grid, keeping the minimum voxelDue over the voxels
// crossed and counting them once each; renderTile stores both for the
// pixel when it is done. A pixel's rays are consecutive and each pixel
// belongs to one worker, so the collector needs no lock.
type regCollector struct {
	e *Engine
	// seen[v] == stamp marks voxel v as counted for the current pixel;
	// stamp advances once per traced pixel.
	seen  []uint32
	stamp uint32
	// due and count accumulate the current pixel's due frame and
	// distinct-voxel count; frameRegs sums count over the frame.
	due       int32
	count     int32
	frameRegs uint64
}

// ensureCollectors grows the reusable collector pool to n workers.
func (e *Engine) ensureCollectors(n int) {
	for len(e.collectors) < n {
		e.collectors = append(e.collectors, &regCollector{e: e, seen: make([]uint32, e.grid.NumVoxels())})
	}
}

// beginPixel resets the per-pixel state before a pixel is traced.
func (c *regCollector) beginPixel() {
	c.stamp++
	if c.stamp == 0 {
		// The stamp wrapped: forget every mark rather than alias one.
		clear(c.seen)
		c.stamp = 1
	}
	c.due = never
	c.count = 0
}

// ObserveRay implements trace.RayObserver: register the current pixel on
// every voxel the ray traverses up to its hit (or through the whole grid
// for escaping rays).
func (c *regCollector) ObserveRay(r vm.Ray, tHit float64) {
	if r.Kind == vm.ShadowRay && c.e.opts.DisableShadowRegistration {
		return
	}
	var w grid.Walker
	w.Start(c.e.grid, r, 0, tHit)
	for {
		idx, _, _, ok := w.Next()
		if !ok {
			return
		}
		if d := c.e.voxelDue[idx]; d < c.due {
			c.due = d
		}
		if c.seen[idx] != c.stamp {
			c.seen[idx] = c.stamp
			c.count++
		}
	}
}

// renderTiles renders the engine's region for one frame through the
// intra-frame tile pool, filling rep's per-frame counts. Determinism:
// every pixel's colour, due frame and registration count are pure
// functions of its coordinates and the frame, and the frozen dirty mask
// decides trace-vs-copy per pixel, so tile order and thread count cannot
// change a single output byte; counters are merged in worker-slot order
// at the barrier. newWorker abstracts over trace.FrameTracer.NewWorker
// (the replicated path) and objspace.Cluster.NewWorker (the sharded
// path): both yield a trace.Worker wired to the given observer.
func (e *Engine) renderTiles(newWorker func(trace.RayObserver) *trace.Worker, frame int, dst *fb.Framebuffer, rep *FrameReport) {
	tiles := e.Region.Blocks(trace.TileW, trace.TileH)
	threads := e.threads()
	if threads > len(tiles) {
		threads = len(tiles)
	}
	e.ensureCollectors(threads)

	type tally struct {
		rendered, copied int
	}
	tallies := make([]tally, threads)
	workers := make([]*trace.Worker, threads)
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		c := e.collectors[i]
		c.frameRegs = 0
		w := newWorker(c)
		workers[i] = w
		var tr *timeline.Track
		if i < len(e.opts.TileTracks) {
			tr = e.opts.TileTracks[i]
		}
		run := func(slot int) {
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				if t >= len(tiles) {
					return
				}
				s := tr.Begin()
				r, cp := e.renderTile(w, c, dst, tiles[t])
				tr.EndArg(timeline.OpTile, frame, s, int64(r))
				tallies[slot].rendered += r
				tallies[slot].copied += cp
			}
		}
		if threads == 1 {
			run(i)
			break
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			run(slot)
		}(i)
	}
	wg.Wait()

	// Frame barrier: merge per-worker results in slot order.
	for i := 0; i < threads; i++ {
		rep.Rendered += tallies[i].rendered
		rep.Copied += tallies[i].copied
		rep.Rays.Merge(workers[i].Counters)
		rep.Registrations += e.collectors[i].frameRegs
	}
}

// renderTile traces the dirty pixels of one tile and copies the clean
// ones. Tiles are disjoint, so due, regs and framebuffer writes from
// concurrent tile workers never touch the same index.
func (e *Engine) renderTile(w *trace.Worker, c *regCollector, dst *fb.Framebuffer, tile fb.Rect) (rendered, copied int) {
	for y := tile.Y0; y < tile.Y1; y++ {
		for x := tile.X0; x < tile.X1; x++ {
			p := e.pixelIndex(x, y)
			if !e.dirty.Get(int(p)) {
				dst.CopyPixel(e.prev, x, y)
				copied++
				continue
			}
			c.beginPixel()
			dst.Set(x, y, w.TracePixel(x, y, e.W, e.H))
			e.due[p] = c.due
			e.regs[p] = c.count
			c.frameRegs += uint64(c.count)
			rendered++
		}
	}
	return rendered, copied
}
