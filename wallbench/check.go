package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/scene"
	"nowrender/internal/trace"
)

// refFrame is one frame of the independent reference: a fresh
// single-threaded trace.New + RenderRegion render that shares no code
// with coherence, farm, msg, wire, framecache or service.
type refFrame struct {
	frame   int
	img     *fb.Framebuffer
	rays    uint64
	resolve time.Duration // trace.New: per-frame resolve and grid build
	render  time.Duration // single-threaded RenderRegion of the full frame
}

// renderReference renders frame f of sc at w x h on the calling
// goroutine.
func renderReference(sc *scene.Scene, f, w, h int) (refFrame, error) {
	t0 := time.Now()
	ft, err := trace.New(sc, f, trace.Options{})
	if err != nil {
		return refFrame{}, fmt.Errorf("reference frame %d: %w", f, err)
	}
	t1 := time.Now()
	img := fb.New(w, h)
	ft.RenderRegion(img, img.Bounds())
	t2 := time.Now()
	return refFrame{frame: f, img: img, rays: ft.Counters.Total(), resolve: t1.Sub(t0), render: t2.Sub(t1)}, nil
}

// sampleFrames picks k distinct frames of [0, n) from the seed, sorted.
func sampleFrames(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	out := rng.Perm(n)[:k]
	sort.Ints(out)
	return out
}

// comparePixels reports the first differing pixel between got and want,
// or "" when they are byte-identical.
func comparePixels(what string, got, want *fb.Framebuffer) string {
	if got == nil {
		return what + ": frame missing"
	}
	if got.W != want.W || got.H != want.H {
		return fmt.Sprintf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	if bytes.Equal(got.Pix, want.Pix) {
		return ""
	}
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			p := i / 3
			return fmt.Sprintf("%s: pixel (%d,%d) differs from the reference render", what, p%got.W, p/got.W)
		}
	}
	return what + ": pixels differ"
}

// corruptOne flips one byte of img: the fault the checks must catch.
func corruptOne(img *fb.Framebuffer) {
	if img != nil && len(img.Pix) > 0 {
		img.Pix[len(img.Pix)/2] ^= 0x40
	}
}
