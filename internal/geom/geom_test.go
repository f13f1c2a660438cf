package geom

import (
	"math"
	"testing"
	"testing/quick"
)

// unitSquare returns a CCW unit square.
func unitSquare() ([4]float64, [4]float64) {
	return [4]float64{0, 1, 1, 0}, [4]float64{0, 0, 1, 1}
}

// randomConvexQuad maps four raw floats to a mildly perturbed unit
// square that stays convex and CCW.
func randomConvexQuad(r [8]float64) ([4]float64, [4]float64) {
	p := func(v float64) float64 { return 0.2 * math.Abs(math.Mod(v, 1)) }
	x := [4]float64{0 + p(r[0]), 1 - p(r[1]), 1 - p(r[2]), 0 + p(r[3])}
	y := [4]float64{0 + p(r[4]), 0 + p(r[5]), 1 - p(r[6]), 1 - p(r[7])}
	return x, y
}

func TestAreaUnitSquare(t *testing.T) {
	x, y := unitSquare()
	if a := Area(&x, &y); math.Abs(a-1) > 1e-15 {
		t.Fatalf("area = %v, want 1", a)
	}
}

func TestAreaSignFlipsWithOrientation(t *testing.T) {
	x, y := unitSquare()
	// Reverse to CW.
	xr := [4]float64{x[0], x[3], x[2], x[1]}
	yr := [4]float64{y[0], y[3], y[2], y[1]}
	if a := Area(&xr, &yr); math.Abs(a+1) > 1e-15 {
		t.Fatalf("CW area = %v, want -1", a)
	}
}

func TestAreaTranslationInvariant(t *testing.T) {
	f := func(dx, dy float64, r [8]float64) bool {
		dx = math.Mod(dx, 1e3)
		dy = math.Mod(dy, 1e3)
		x, y := randomConvexQuad(r)
		a0 := Area(&x, &y)
		for k := 0; k < 4; k++ {
			x[k] += dx
			y[k] += dy
		}
		return math.Abs(Area(&x, &y)-a0) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCentroidUnitSquare(t *testing.T) {
	x, y := unitSquare()
	cx, cy := Centroid(&x, &y)
	if cx != 0.5 || cy != 0.5 {
		t.Fatalf("centroid = (%v,%v), want (0.5,0.5)", cx, cy)
	}
}

func TestBasisGradSumsToZero(t *testing.T) {
	f := func(r [8]float64) bool {
		x, y := randomConvexQuad(r)
		var ax, ay [4]float64
		BasisGrad(&x, &y, &ax, &ay)
		var sx, sy float64
		for k := 0; k < 4; k++ {
			sx += ax[k]
			sy += ay[k]
		}
		return math.Abs(sx) < 1e-14 && math.Abs(sy) < 1e-14
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The defining property: moving node k by (h,0) changes the area by
// ax[k]*h to first order. Verified with central differences.
func TestBasisGradIsAreaGradient(t *testing.T) {
	f := func(r [8]float64) bool {
		x, y := randomConvexQuad(r)
		var ax, ay [4]float64
		BasisGrad(&x, &y, &ax, &ay)
		const h = 1e-6
		for k := 0; k < 4; k++ {
			xp, xm := x, x
			xp[k] += h
			xm[k] -= h
			dAdx := (Area(&xp, &y) - Area(&xm, &y)) / (2 * h)
			if math.Abs(dAdx-ax[k]) > 1e-8 {
				return false
			}
			yp, ym := y, y
			yp[k] += h
			ym[k] -= h
			dAdy := (Area(&x, &yp) - Area(&x, &ym)) / (2 * h)
			if math.Abs(dAdy-ay[k]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMinLengthRectangle(t *testing.T) {
	// 2 x 0.5 rectangle: characteristic length is the short side 0.5.
	x := [4]float64{0, 2, 2, 0}
	y := [4]float64{0, 0, 0.5, 0.5}
	if l := MinLength(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3]); math.Abs(l-0.5) > 1e-14 {
		t.Fatalf("MinLength = %v, want 0.5", l)
	}
}

func TestSubVolumesTileElement(t *testing.T) {
	f := func(r [8]float64) bool {
		x, y := randomConvexQuad(r)
		var sv [4]float64
		SubVolumes(&x, &y, &sv)
		sum := sv[0] + sv[1] + sv[2] + sv[3]
		return math.Abs(sum-Area(&x, &y)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSubVolumesEqualOnSquare(t *testing.T) {
	x, y := unitSquare()
	var sv [4]float64
	SubVolumes(&x, &y, &sv)
	for k := 0; k < 4; k++ {
		if math.Abs(sv[k]-0.25) > 1e-15 {
			t.Fatalf("sv[%d] = %v, want 0.25", k, sv[k])
		}
	}
}

func TestDivergenceUniformExpansion(t *testing.T) {
	x, y := unitSquare()
	// u = x - 0.5, v = y - 0.5: du/dx + dv/dy = 2.
	var u, v [4]float64
	for k := 0; k < 4; k++ {
		u[k] = x[k] - 0.5
		v[k] = y[k] - 0.5
	}
	if d := Divergence(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3], u[0], u[1], u[2], u[3], v[0], v[1], v[2], v[3]); math.Abs(d-2) > 1e-14 {
		t.Fatalf("divergence = %v, want 2", d)
	}
}

func TestDivergenceZeroForTranslation(t *testing.T) {
	f := func(r [8]float64, uu, vv float64) bool {
		uu = math.Mod(uu, 100)
		vv = math.Mod(vv, 100)
		x, y := randomConvexQuad(r)
		u := [4]float64{uu, uu, uu, uu}
		v := [4]float64{vv, vv, vv, vv}
		return math.Abs(Divergence(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3], u[0], u[1], u[2], u[3], v[0], v[1], v[2], v[3])) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDivergenceZeroForRotation(t *testing.T) {
	x, y := unitSquare()
	// Rigid rotation about centroid: u = -(y-cy), v = (x-cx).
	var u, v [4]float64
	for k := 0; k < 4; k++ {
		u[k] = -(y[k] - 0.5)
		v[k] = x[k] - 0.5
	}
	if d := Divergence(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3], u[0], u[1], u[2], u[3], v[0], v[1], v[2], v[3]); math.Abs(d) > 1e-14 {
		t.Fatalf("rotation divergence = %v, want 0", d)
	}
}

func TestHourglassModePreservesArea(t *testing.T) {
	// On a parallelogram, nodal displacement along Γ keeps area constant.
	x := [4]float64{0, 1, 1.3, 0.3}
	y := [4]float64{0, 0, 1, 1}
	a0 := Area(&x, &y)
	const h = 1e-3
	var xh, yh [4]float64
	for k := 0; k < 4; k++ {
		xh[k] = x[k] + h*HourglassVector[k]
		yh[k] = y[k] + h*HourglassVector[k]
	}
	if math.Abs(Area(&xh, &yh)-a0) > 1e-12 {
		t.Fatalf("hourglass displacement changed area by %v", Area(&xh, &yh)-a0)
	}
}

func TestDegenerateElementDivergenceSafe(t *testing.T) {
	// All nodes coincident: area zero, divergence must not blow up.
	x := [4]float64{1, 1, 1, 1}
	y := [4]float64{2, 2, 2, 2}
	u := [4]float64{1, 2, 3, 4}
	v := [4]float64{4, 3, 2, 1}
	if d := Divergence(x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3], u[0], u[1], u[2], u[3], v[0], v[1], v[2], v[3]); d != 0 {
		t.Fatalf("degenerate divergence = %v, want 0", d)
	}
}
