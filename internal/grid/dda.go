package grid

import (
	"math"

	vm "nowrender/internal/vecmath"
)

// Walker is the callback-free form of Walk: Start places it on the first
// voxel a ray pierces and each Next call yields the following voxel, in
// exactly the order Walk visits them. Walk itself is a loop over a
// Walker, so the two share one traversal. The zero Walker yields
// nothing.
//
// This is the "modified 3D-DDA" of the paper (§2), i.e. the Amanatides &
// Woo incremental traversal: after initialisation each step is one
// comparison and one addition per axis.
type Walker struct {
	live   bool
	c      [3]int // current voxel coordinates
	dims   [3]int
	step   [3]int
	tDelta [3]float64
	tNext  [3]float64
	tEnter float64
	tMax   float64
}

// Start positions w on the first voxel pierced by ray r over parameter
// range [tMin, tMax]. If the ray misses the grid, Next yields nothing.
func (w *Walker) Start(g *Grid, r vm.Ray, tMin, tMax float64) {
	w.live = false
	iv, hit := g.bounds.IntersectRay(r, tMin, tMax)
	if !hit {
		return
	}
	t := iv.Min
	// Nudge the start point inside the grid to dodge boundary ambiguity.
	startT := t + 1e-12*(1+math.Abs(t))
	p := r.At(startT)
	ix, iy, iz, ok := g.VoxelOf(p)
	if !ok {
		// Ray technically grazes the boundary; clamp the entry point.
		p = p.Max(g.bounds.Min).Min(g.bounds.Max)
		ix, iy, iz, ok = g.VoxelOf(p)
		if !ok {
			return
		}
	}

	w.c = [3]int{ix, iy, iz}
	w.dims = [3]int{g.nx, g.ny, g.nz}
	for a := 0; a < 3; a++ {
		d := r.Dir.Axis(a)
		switch {
		case d > 0:
			w.step[a] = 1
			w.tDelta[a] = g.cellSize.Axis(a) / d
			boundary := g.bounds.Min.Axis(a) + float64(w.c[a]+1)*g.cellSize.Axis(a)
			w.tNext[a] = (boundary - r.Origin.Axis(a)) / d
		case d < 0:
			w.step[a] = -1
			w.tDelta[a] = -g.cellSize.Axis(a) / d
			boundary := g.bounds.Min.Axis(a) + float64(w.c[a])*g.cellSize.Axis(a)
			w.tNext[a] = (boundary - r.Origin.Axis(a)) / d
		default:
			w.step[a] = 0
			w.tDelta[a] = math.Inf(1)
			w.tNext[a] = math.Inf(1)
		}
	}
	w.tEnter = iv.Min
	w.tMax = iv.Max
	w.live = true
}

// Next returns the flat index of the next voxel on the ray and the
// parameter interval [tEnter, tLeave] the ray spends inside it; ok is
// false once the ray has left the grid or passed tMax.
func (w *Walker) Next() (idx int, tEnter, tLeave float64, ok bool) {
	if !w.live {
		return 0, 0, 0, false
	}
	// Which axis boundary is crossed first?
	axis := 0
	if w.tNext[1] < w.tNext[axis] {
		axis = 1
	}
	if w.tNext[2] < w.tNext[axis] {
		axis = 2
	}
	idx = (w.c[2]*w.dims[1]+w.c[1])*w.dims[0] + w.c[0]
	tEnter = w.tEnter
	tLeave = min(w.tNext[axis], w.tMax)
	if w.tNext[axis] > w.tMax {
		w.live = false // the ray ends inside this voxel
	} else {
		w.tEnter = w.tNext[axis]
		w.tNext[axis] += w.tDelta[axis]
		w.c[axis] += w.step[axis]
		if w.c[axis] < 0 || w.c[axis] >= w.dims[axis] {
			w.live = false
		}
	}
	return idx, tEnter, tLeave, true
}

// Walk traverses the voxels pierced by ray r over parameter range
// [tMin, tMax] in front-to-back order, calling visit for each. visit
// receives the flat voxel index and the parameter interval [tEnter,
// tLeave] the ray spends inside the voxel; returning false stops the
// walk early (used by the tracer once a hit is confirmed inside the
// current voxel).
func (g *Grid) Walk(r vm.Ray, tMin, tMax float64, visit func(idx int, tEnter, tLeave float64) bool) {
	var w Walker
	w.Start(g, r, tMin, tMax)
	for {
		idx, tEnter, tLeave, ok := w.Next()
		if !ok || !visit(idx, tEnter, tLeave) {
			return
		}
	}
}

// WalkSegment traverses voxels along the segment from a to b, a
// convenience wrapper used for shadow rays (which have a natural end at
// the light position).
func (g *Grid) WalkSegment(a, b vm.Vec3, visit func(idx int, tEnter, tLeave float64) bool) {
	d := b.Sub(a)
	g.Walk(vm.Ray{Origin: a, Dir: d}, 0, 1, visit)
}

// VoxelsOnRay collects the flat indices of all voxels the ray visits, in
// order. Intended for tests.
func (g *Grid) VoxelsOnRay(r vm.Ray, tMin, tMax float64) []int {
	var out []int
	g.Walk(r, tMin, tMax, func(idx int, _, _ float64) bool {
		out = append(out, idx)
		return true
	})
	return out
}
