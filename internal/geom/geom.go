// Package geom implements the bilinear isoparametric quadrilateral
// geometry used by BookLeaf's spatial discretisation: signed areas,
// centroids, the area-gradient "basis" vectors that drive the compatible
// corner forces, characteristic length scales for the CFL condition, and
// the four sub-zonal (corner) volumes that the Caramana hourglass
// control and the momentum remap are built on.
//
// Nodes of a quad are numbered 0..3 counter-clockwise; edge k joins node
// k to node (k+1) mod 4. All functions take coordinates as two 4-arrays
// so callers can gather from SoA mesh storage without allocation.
package geom

import "math"

// Area returns the signed area of the quad (positive for CCW node
// ordering) by the shoelace formula, which is exact for the bilinear
// element.
func Area(x, y *[4]float64) float64 {
	return QuadArea(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3])
}

// QuadArea is Area on eight scalars. The per-element hot loops call the
// scalar forms (QuadArea, MinLength, Divergence) on values they have
// already gathered: the Go compiler keeps named scalars in registers,
// whereas a [4]float64 local always lives on the stack and its k-loops
// are not unrolled.
func QuadArea(x0, x1, x2, x3, y0, y1, y2, y3 float64) float64 {
	return 0.5 * ((x2-x0)*(y3-y1) - (x3-x1)*(y2-y0))
}

// Centroid returns the vertex-average centre of the quad. BookLeaf uses
// the vertex average (not the area centroid) for sub-zone construction.
func Centroid(x, y *[4]float64) (cx, cy float64) {
	return 0.25 * (x[0] + x[1] + x[2] + x[3]), 0.25 * (y[0] + y[1] + y[2] + y[3])
}

// BasisGrad fills ax, ay with the gradients of the element area with
// respect to each node position:
//
//	ax[k] = ∂A/∂x_k = (y_{k+1} - y_{k-1}) / 2
//	ay[k] = ∂A/∂y_k = (x_{k-1} - x_{k+1}) / 2
//
// These vectors satisfy dA/dt = Σ_k (ax[k] u_k + ay[k] v_k) for nodal
// velocities (u, v) and sum to zero over k (translation invariance), so
// the pressure corner forces F_k = (P+q)(ax[k], ay[k]) built on them
// exactly balance and conserve momentum.
func BasisGrad(x, y *[4]float64, ax, ay *[4]float64) {
	for k := 0; k < 4; k++ {
		kp := (k + 1) & 3
		km := (k + 3) & 3
		ax[k] = 0.5 * (y[kp] - y[km])
		ay[k] = 0.5 * (x[km] - x[kp])
	}
}

// MinLength returns the characteristic length scale used by the CFL
// condition: the smaller of (a) the two distances between midpoints of
// opposite edges and (b) the area divided by the longest edge. For a
// rectangle this is the shorter side. Term (b) is what keeps thin or
// nearly-degenerate quads stable: their midpoint distances stay finite
// while the true acoustic transit scale collapses with the area, and a
// CFL timestep based on midpoints alone lets the explicit update blow
// up before the timestep control can react.
func MinLength(x0, x1, x2, x3, y0, y1, y2, y3 float64) float64 {
	// All candidate lengths are compared as squares and only the winner
	// is rooted: sqrt is monotone and correctly rounded, so
	// sqrt(min(a², b²)) is bit-for-bit min(sqrt(a²), sqrt(b²)) — one
	// square root per element instead of six on the timestep kernel's
	// hot path.
	d2 := len2(0.5*(x2+x3)-0.5*(x0+x1), 0.5*(y2+y3)-0.5*(y0+y1))
	if e2 := len2(0.5*(x3+x0)-0.5*(x1+x2), 0.5*(y3+y0)-0.5*(y1+y2)); e2 < d2 {
		d2 = e2
	}
	l := math.Sqrt(d2)
	longest2 := longer(longer(longer(longer(0, x1-x0, y1-y0), x2-x1, y2-y1), x3-x2, y3-y2), x0-x3, y0-y3)
	if longest := math.Sqrt(longest2); longest > 0 {
		if thin := QuadArea(x0, x1, x2, x3, y0, y1, y2, y3) / longest; thin > 0 && thin < l {
			l = thin
		}
	}
	return l
}

func len2(dx, dy float64) float64 { return dx*dx + dy*dy }

// longer returns the larger of l2 and the squared length of (dx, dy); a
// NaN length never wins.
func longer(l2, dx, dy float64) float64 {
	if s2 := len2(dx, dy); s2 > l2 {
		return s2
	}
	return l2
}

// SubVolumes fills sv with the four corner sub-zone areas. Corner k is
// the quad (node k, midpoint of edge k, centroid, midpoint of edge k-1);
// the four corners exactly tile the element, so sum(sv) == Area to
// round-off. Negative sub-volumes indicate a tangled (non-convex past
// the diagonal) element.
func SubVolumes(x, y *[4]float64, sv *[4]float64) {
	cx, cy := Centroid(x, y)
	var mx, my [4]float64
	for k := 0; k < 4; k++ {
		kp := (k + 1) & 3
		mx[k] = 0.5 * (x[k] + x[kp])
		my[k] = 0.5 * (y[k] + y[kp])
	}
	for k := 0; k < 4; k++ {
		km := (k + 3) & 3
		// Quad: node k -> mid edge k -> centroid -> mid edge k-1.
		qx := [4]float64{x[k], mx[k], cx, mx[km]}
		qy := [4]float64{y[k], my[k], cy, my[km]}
		sv[k] = Area(&qx, &qy)
	}
}

// HourglassVector is the zero-energy mode pattern Γ = (+1,-1,+1,-1) for
// the bilinear quad. A nodal field proportional to Γ changes no element
// area (it is orthogonal to the basis gradients on a parallelogram) yet
// distorts the element — the "hourglass" mode the paper's filters
// suppress.
var HourglassVector = [4]float64{1, -1, 1, -1}

// Divergence returns the discrete velocity divergence of the element,
// (dA/dt)/A, given nodal velocities. Returns 0 for degenerate area.
func Divergence(x0, x1, x2, x3, y0, y1, y2, y3, u0, u1, u2, u3, v0, v1, v2, v3 float64) float64 {
	a := QuadArea(x0, x1, x2, x3, y0, y1, y2, y3)
	if a <= 0 {
		return 0
	}
	// Σ_k ∂A/∂x_k·u_k + ∂A/∂y_k·v_k (see BasisGrad), corner by corner.
	var dAdt float64
	dAdt += 0.5*(y1-y3)*u0 + 0.5*(x3-x1)*v0
	dAdt += 0.5*(y2-y0)*u1 + 0.5*(x0-x2)*v1
	dAdt += 0.5*(y3-y1)*u2 + 0.5*(x1-x3)*v2
	dAdt += 0.5*(y0-y2)*u3 + 0.5*(x2-x0)*v3
	return dAdt / a
}
